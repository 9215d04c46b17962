"""Continued fractions and Diophantine quality of shift frequencies.

The quantity of interest is how far multiples ``n*omega`` stay from the
integers: the scan below takes ``min_n ||n w|| * n * (log n)^a``, whose
positivity witnesses the arithmetic condition the torus-shift experiments
assume.  Distances to the nearest integer are smallest at continued
fraction convergent denominators, which the tests use as an independent
oracle.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import ValidationError


def continued_fraction(x: float, max_terms: int = 64) -> list[int]:
    """Partial quotients of ``x`` by the Euclidean algorithm on its exact
    binary-float value (terms after the float's resolution are meaningless
    and the expansion of a float is finite)."""
    frac = Fraction(x).limit_denominator(10**18)
    terms: list[int] = []
    num, den = frac.numerator, frac.denominator
    while den and len(terms) < max_terms:
        a, rem = divmod(num, den)
        terms.append(int(a))
        num, den = den, rem
    return terms


def convergents(x: float, max_terms: int = 64) -> list[tuple[int, int]]:
    """Successive best rational approximations ``p/q`` of ``x``."""
    out: list[tuple[int, int]] = []
    pm2, pm1 = 0, 1
    qm2, qm1 = 1, 0
    for a in continued_fraction(x, max_terms):
        p = a * pm1 + pm2
        q = a * qm1 + qm2
        out.append((p, q))
        pm2, pm1 = pm1, p
        qm2, qm1 = qm1, q
    return out


def rational_witness(x: float, max_denominator: int = 10**6, tol: float = 1e-15):
    """Return ``(p, q)`` if some rational with ``q <= max_denominator``
    matches ``x`` within ``tol``, else ``None``.

    Only convergents need checking: they realize the minimal distance
    among all denominators up to a bound.
    """
    best: tuple[int, int] | None = None
    for p, q in convergents(x):
        if q > max_denominator:
            break
        if abs(x - p / q) <= tol:
            best = (p, q)
            break
    return best


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
