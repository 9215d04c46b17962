"""Empirical large-deviation measurements for cocycle families.

The deviation set at scale ``n``, order ``p``, and threshold ``delta``
is the set of base points where the normalized compound log-norm strays
from its grid mean by more than ``delta``.  Its measure is estimated as
the fraction of the same uniform grid used for the quadrature, i.e. a
Lebesgue-measure approximation with O(1/M) resolution; centering uses
the grid-computed finite-scale means, not extrapolated limits.

The three reports (the deviation profile's ``(n, delta, measure)`` rows,
almost invariance, monotonicity) reduce log-norm arrays of the one grid
profile ``u_n(x) = n^-1 log||A^(n)_x||``; :func:`reports` feeds them from
one orbit pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cocycle import QUADRATURE_TOL, CocycleFamily, grid_phasors
from .errors import ValidationError
from .util import pairwise_mean


@dataclass(frozen=True)
class DecayFit:
    """Least-squares decay fit of a deviation profile in ``n``.

    ``exp_poly`` fits ``log m = -c n + C (log n)^b`` (``b`` scanned over a
    fixed grid, ``c`` and ``C`` linear); ``stretched`` fits
    ``log(-log m) = tau log n + const``.  ``degenerate`` is set when
    fewer than 4 rows have positive measure.  Coefficients the model does
    not fit, and every number of a degenerate fit, are ``None``.
    """

    model: str
    degenerate: bool
    c: float | None = None
    C: float | None = None
    b: float | None = None
    tau: float | None = None
    residual: float | None = None


def deviation_profile(lognorms, scales, deltas) -> list[tuple[int, float, float]]:
    """Deviation measures on a ``scales x deltas`` grid, as rows ``(n,
    delta, measure)``, from the grid log-norms ``lognorms[i]`` at scale
    ``scales[i]``."""
    deltas = tuple(float(d) for d in deltas)
    if any(d <= 0.0 for d in deltas):
        raise ValidationError("deltas must be positive")
    rows = []
    for n, row in zip(scales, lognorms):
        vals = row / n
        centered = vals - pairwise_mean(vals)
        for delta in deltas:
            frac = float(np.count_nonzero(np.abs(centered) > delta)) / centered.size
            rows.append((int(n), delta, frac))
    return rows


_B_GRID = np.linspace(0.25, 4.0, 16)


def fit_decay(rows, delta: float, model: str = "exp_poly") -> DecayFit:
    """Fit the decay of ``measure`` against ``n`` over the ``(n, delta,
    measure)`` rows at ``delta``."""
    if model not in ("exp_poly", "stretched"):
        raise ValidationError(f"unknown decay model {model!r}")
    usable = [(n, meas) for (n, d, meas) in rows if d == delta and meas > 0.0]
    if len(usable) < 4:
        return DecayFit(model=model, degenerate=True)
    ns = np.array([n for n, _ in usable], dtype=np.float64)
    ms = np.array([meas for _, meas in usable], dtype=np.float64)
    logm = np.log(ms)
    if model == "stretched":
        # measure ~ exp(-n^tau): regress log(-log m) on log n
        y = np.log(-logm)
        x = np.log(ns)
        a = np.stack([x, np.ones_like(x)], axis=1)
        coef, *_ = np.linalg.lstsq(a, y, rcond=None)
        resid = float(np.sqrt(np.mean((a @ coef - y) ** 2)))
        return DecayFit(model=model, degenerate=False, tau=float(coef[0]), residual=resid)
    best = None
    for b in _B_GRID:
        a = np.stack([-ns, np.log(ns) ** b], axis=1)
        coef, *_ = np.linalg.lstsq(a, logm, rcond=None)
        resid = float(np.sqrt(np.mean((a @ coef - logm) ** 2)))
        if best is None or resid < best[0]:
            best = (resid, float(b), float(coef[0]), float(coef[1]))
    resid, b, c, big_c = best
    return DecayFit(model=model, degenerate=False, c=c, C=big_c, b=b, residual=resid)


@dataclass(frozen=True)
class AlmostInvarianceReport:
    sup_gap: float
    bound: float
    k: int
    n: int

    @property
    def ok(self) -> bool:
        return self.sup_gap <= self.bound + 1e-10


def almost_invariance(here, shifted, n: int, k: int, top, inv) -> AlmostInvarianceReport:
    """Uniform shift-invariance defect of ``u_n`` from the grid log-norms
    ``here`` at ``x`` and ``shifted`` at ``x + k omega``.

    ``sup_gap`` is the grid supremum of ``|u_n(x + k omega) - u_n(x)|``;
    the bound ``k (top + inv) / n``, with ``top`` and ``inv`` the grid
    maxima of ``log||A||`` and ``log||A^-1||``, holds pointwise by
    telescoping one conjugation step at a time.
    """
    sup_gap = float(np.max(np.abs(shifted / n - here / n)))
    return AlmostInvarianceReport(sup_gap=sup_gap, bound=float(k * (top + inv) / n), k=k, n=n)


@dataclass(frozen=True)
class MonotonicityReport:
    scales: tuple[int, ...]
    values: tuple[float, ...]  # lambda_{1,n} per scale
    violations: tuple[tuple[int, float], ...]  # (n, excess) per failed doubling


def monotonicity_audit(lognorms, scales) -> MonotonicityReport:
    """Check ``lambda_{1,2n} <= lambda_{1,n} + QUADRATURE_TOL`` along a dyadic ladder
    from the order-1 grid log-norms ``lognorms[i]`` at ``scales[i]``."""
    scales = tuple(int(s) for s in scales)
    for a, b in zip(scales, scales[1:]):
        if b != 2 * a:
            raise ValidationError("scales must form a dyadic ladder")
    values = tuple(pairwise_mean(row) / n for n, row in zip(scales, lognorms))
    excess = [(n, b - a) for n, a, b in zip(scales[1:], values, values[1:])]
    violations = tuple((n, float(e)) for n, e in excess if e > QUADRATURE_TOL)
    return MonotonicityReport(scales=scales, values=values, violations=violations)


def reports(fam: CocycleFamily, E: float, scales, deltas, m: int, p: int = 1, k: int = 1,
            ladder=()):
    """``(deviation_profile, almost_invariance, monotonicity_audit)`` on the
    ``m``-grid: the order-``p`` profile on ``scales x deltas``, invariance
    under ``k`` shifts at the top scale and the audit along ``ladder``, from
    one order-1 pass on the grid and its exact ``k``-shift (a second if ``p != 1``)."""
    if k < 1:
        raise ValidationError("k must be at least 1")
    scales = tuple(sorted(set(int(s) for s in scales)))
    if not scales:
        raise ValidationError("scales must be non-empty")
    cps = tuple(sorted(set(scales + tuple(ladder))))
    zeta = grid_phasors(m)
    both = np.concatenate([zeta, zeta * fam.base.rotation([k])])
    here, shifted = np.split(fam.orbit_lognorms(E, both, cps[-1], checkpoints=cps), 2, axis=1)
    top = cps.index(scales[-1])
    profile = (here[[cps.index(n) for n in scales]] if p == 1 else
               fam.orbit_lognorms(E, zeta, scales[-1], p=p, checkpoints=scales))
    return (
        deviation_profile(profile, scales, deltas),
        almost_invariance(here[top], shifted[top], scales[-1], k,
                          *fam.one_step_log_extremes(E, m)),
        monotonicity_audit(here[[cps.index(n) for n in ladder]], ladder),
    )
