"""Empirical large-deviation measurements for cocycle families.

The deviation set at scale ``n``, order ``p``, and threshold ``delta``
is the set of base points where the normalized compound log-norm strays
from its grid mean by more than ``delta``.  Its measure is estimated as
the fraction of the same uniform grid used for the quadrature, i.e. a
Lebesgue-measure approximation with O(1/M) resolution; centering uses
the grid-computed finite-scale means, not extrapolated limits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cocycle import QUADRATURE_TOL, CocycleFamily, torus_grid
from .errors import ValidationError
from .util import pairwise_mean


@dataclass
class DeviationProfile:
    """Measured deviation-set measures over rows of ``(n, delta)``."""

    rows: list[tuple[int, float, float]] = field(default_factory=list)  # (n, delta, measure)

    def add(self, n: int, delta: float, measure: float):
        if not 0.0 <= measure <= 1.0:
            raise ValidationError(f"measure {measure} outside [0,1]")
        self.rows.append((int(n), float(delta), float(measure)))


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


def deviation_profile(
    fam: CocycleFamily,
    E: float,
    p: int,
    scales,
    deltas,
    m: int,
) -> DeviationProfile:
    """Deviation measures on a ``scales x deltas`` grid, one orbit pass per
    scale ladder."""
    scales = tuple(sorted(set(int(s) for s in scales)))
    deltas = tuple(float(d) for d in deltas)
    if any(d <= 0.0 for d in deltas):
        raise ValidationError("deltas must be positive")
    prof = DeviationProfile()
    xs = torus_grid(fam.base.nu, m)
    lognorms = fam.orbit_lognorms(E, xs, scales[-1], p=p, checkpoints=scales)
    for i, n in enumerate(scales):
        vals = lognorms[i] / n
        centered = vals - pairwise_mean(vals)
        for delta in deltas:
            frac = float(np.count_nonzero(np.abs(centered) > delta)) / centered.size
            prof.add(n, delta, frac)
    return prof


_B_GRID = np.linspace(0.25, 4.0, 16)


def fit_decay(profile: DeviationProfile, delta: float, model: str = "exp_poly") -> DecayFit:
    """Fit the decay of ``measure`` against ``n`` over the rows at ``delta``."""
    if model not in ("exp_poly", "stretched"):
        raise ValidationError(f"unknown decay model {model!r}")
    usable = [(n, meas) for (n, d, meas) in profile.rows if d == delta and meas > 0.0]
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


def almost_invariance(
    fam: CocycleFamily, E: float, n: int, k: int, m: int
) -> AlmostInvarianceReport:
    """Uniform shift-invariance defect of ``u_n = n^-1 log||A^(n)_x||``.

    ``sup_gap`` is the grid supremum of ``|u_n(x + k omega) - u_n(x)|``;
    the bound is ``k (max log||A|| + max log||A^-1||) / n``, which holds
    pointwise by telescoping one conjugation step at a time.
    """
    if k < 1:
        raise ValidationError("k must be at least 1")
    xs = torus_grid(fam.base.nu, m)
    both = np.concatenate([xs, fam.base.orbit_points(xs, k)])
    u_here, u_shift = np.split(fam.orbit_lognorms(E, both, n)[0] / n, 2)
    sup_gap = float(np.max(np.abs(u_shift - u_here)))
    top, inv = fam.one_step_log_extremes(E, m)
    bound = k * (top + inv) / n
    return AlmostInvarianceReport(sup_gap=sup_gap, bound=float(bound), k=k, n=n)


@dataclass(frozen=True)
class MonotonicityReport:
    scales: tuple[int, ...]
    values: tuple[float, ...]  # lambda_{1,n} per scale
    violations: tuple[tuple[int, float], ...]  # (n, excess) per failed doubling

    @property
    def ok(self) -> bool:
        return not self.violations


def monotonicity_audit(
    fam: CocycleFamily, E: float, scales, m: int, tol: float = QUADRATURE_TOL
) -> MonotonicityReport:
    """Check ``lambda_{1,2n} <= lambda_{1,n} + tol`` along a dyadic ladder."""
    scales = tuple(sorted(set(int(s) for s in scales)))
    for a, b in zip(scales, scales[1:]):
        if b != 2 * a:
            raise ValidationError("scales must form a dyadic ladder")
    ladder = fam.exponent_ladder(E, scales, m)
    values = tuple(float(ladder[n][0]) for n in scales)
    violations = []
    for i in range(len(scales) - 1):
        excess = values[i + 1] - values[i]
        if excess > tol:
            violations.append((scales[i + 1], float(excess)))
    return MonotonicityReport(scales=scales, values=values, violations=tuple(violations))
