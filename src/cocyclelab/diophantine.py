"""Diophantine quality of shift frequencies.

The quantity of interest is how far multiples ``n*omega`` stay from the
integers: the scan below takes ``min_n ||n w|| * n * (log n)^a``, whose
positivity witnesses the arithmetic condition the torus-shift experiments
assume.  Distances to the nearest integer are smallest at continued
fraction convergent denominators; the tests use the golden mean's
convergents, the consecutive Fibonacci pairs, as an independent oracle.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import ValidationError


def rational_witness(x: float, max_denominator: int = 10**6, tol: float = 1e-15):
    """Return ``(p, q)`` if some rational with ``q <= max_denominator``
    matches ``x`` within ``tol``, else ``None``.

    The candidate is the closest such rational,
    ``Fraction(x).limit_denominator(max_denominator)``.  At the defaults
    the witness is unique: two distinct fractions with denominators up to
    ``10^6`` lie at least ``1/(q q') >= 1e-12`` apart, so at most one is
    within ``1e-15`` of ``x``, and that one is the closest.  Since ``1e-15 <
    1/(2 q^2)``, it is a continued-fraction convergent of ``x`` (Legendre).
    """
    frac = Fraction(x).limit_denominator(max_denominator)
    p, q = frac.numerator, frac.denominator
    return (p, q) if abs(x - p / q) <= tol else None


def torus_distance(values: np.ndarray) -> np.ndarray:
    """Distance to the nearest integer, elementwise."""
    v = np.asarray(values, dtype=np.float64)
    frac = v - np.floor(v)
    return np.minimum(frac, 1.0 - frac)


def diophantine_minima(omega: float, dio_exponent: float, n_max: int) -> list[tuple[int, float]]:
    """Scan ``||n w|| * n * (log n)^a`` over ``2 <= n <= n_max``.

    Returns the running-record minima: the ``(n, value)`` pairs at which a
    new minimum is achieved, so the last pair is the minimum and its
    argmin.  A zero minimum flags a rational (or float-resolution
    rational) shift.
    """
    if n_max < 2:
        raise ValidationError("n_max must be at least 2")
    if dio_exponent <= 1.0:
        raise ValidationError("the Diophantine exponent must exceed 1")
    n = np.arange(2, n_max + 1, dtype=np.float64)
    vals = torus_distance(n * omega) * n * np.log(n) ** dio_exponent
    # a record beats every earlier value: the running minimum before it
    before = np.minimum.accumulate(np.concatenate(([np.inf], vals[:-1])))
    return [(int(n[i]), float(vals[i])) for i in np.flatnonzero(vals < before)]
