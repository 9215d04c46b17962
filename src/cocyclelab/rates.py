"""Convergence-rate experiments and parameter-regularity estimation.

The infinite-scale exponent is never computable; its stand-in throughout
is the Richardson proxy ``2 lambda_{j,2l} - lambda_{j,l}`` at the top of
a dyadic ladder, whose defect is exponentially small in ``l`` wherever
the spectrum has uniform gaps.  Against that proxy the lab measures the
``C/n`` law, the doubling increments ``R(n)``, and the exponential-vs-1/n
dichotomy; across the parameter it regresses a Hölder exponent wherever
a gap check passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp

import numpy as np

from .cocycle import QUADRATURE_TOL, CocycleFamily
from .errors import NumericalRefusal, ValidationError
from .util import dyadic_ladder


@dataclass(frozen=True)
class RateSeries:
    """Finite-scale exponents of one exponent index ``j`` along a complete
    dyadic ladder, with the Richardson proxy for the limit."""

    j: int
    scales: tuple[int, ...]
    values: tuple[float, ...]
    stderrs: tuple[float, ...] | None = None

    def __post_init__(self):
        s = self.scales
        if len(s) < 2:
            raise ValidationError("rate series needs at least two rungs")
        for a, b in zip(s, s[1:]):
            if b != 2 * a:
                raise ValidationError("scales must form a complete dyadic ladder")
        if len(self.values) != len(s):
            raise ValidationError("values and scales disagree in length")

    @property
    def proxy_limit(self) -> float:
        """``2 * top - second`` on the last two rungs; exact on ``a + b/n``."""
        return 2.0 * self.values[-1] - self.values[-2]

    @property
    def proxy_scale(self) -> int:
        return self.scales[-1]


def rate_series(
    fam: CocycleFamily, E: float, j: int, n_max: int, m: int, n_min: int = 4
) -> RateSeries:
    """Fill the dyadic ladder ``n_min..n_max`` for exponent index ``j``; the
    ladder must end at ``n_max``, a power of two."""
    if n_max < 2 * n_min or n_max & (n_max - 1):
        raise ValidationError("n_max must be a power of two at least twice n_min")
    scales = dyadic_ladder(n_min, n_max)
    if scales[-1] != n_max:
        raise ValidationError(
            f"the dyadic ladder from n_min = {n_min} ends at {scales[-1]}, not at n_max = {n_max}")
    ladder = fam.exponent_ladder(E, scales, m, j)
    vals = tuple(float(ladder[n]) for n in scales)
    return RateSeries(j=int(j), scales=scales, values=vals)


def check_c_over_n(series: RateSeries) -> tuple[float, list[tuple[int, float]]]:
    """``C_est = max n |lambda_n - proxy|`` over rungs ``n <= n_max/4``
    (the top rungs are excluded: they define the proxy).  Also returns the
    per-rung table ``(n, n*|deviation|)``."""
    table = []
    c_est = 0.0
    cutoff = series.scales[-1] // 4
    for n, v in zip(series.scales, series.values):
        weighted = n * abs(v - series.proxy_limit)
        table.append((n, float(weighted)))
        if n <= cutoff:
            c_est = max(c_est, float(weighted))
    return c_est, table


@dataclass(frozen=True)
class RSequenceReport:
    rows: tuple[tuple[int, float], ...]  # (n, R(n) = 2n|lambda_{1,2n} - lambda_{1,n}|)
    tail_max: float
    median: float
    bounded: bool  # tail max within 10x the median


def r_sequence(series: RateSeries) -> RSequenceReport:
    """Doubling increments ``R(n)``; flags an unbounded-looking tail."""
    if len(series.scales) < 3:
        raise ValidationError("need at least three rungs for the R sequence")
    rows = []
    for i in range(len(series.scales) - 1):
        n = series.scales[i]
        rows.append((n, 2.0 * n * abs(series.values[i + 1] - series.values[i])))
    rvals = np.array([r for _, r in rows])
    med = float(np.median(rvals))
    tail = rvals[len(rvals) // 2 :]
    tail_max = float(np.max(tail))
    return RSequenceReport(
        rows=tuple(rows),
        tail_max=tail_max,
        median=med,
        bounded=bool(tail_max <= 10.0 * med) if med > 0 else True,
    )


@dataclass(frozen=True)
class DichotomyVerdict:
    classification: str  # exponential | one_over_n | inconclusive
    c1: float
    c1_est: float | None  # None: one_over_n, or < 2 second differences above noise_floor
    trigger_scale: int | None
    evidence: tuple[tuple[int, float, float], ...]  # (l, second_difference, threshold)
    noise_floor: float = 0.0


def dichotomy(
    series: RateSeries, c1: float, l0: int, noise_floor: float = 0.0
) -> DichotomyVerdict:
    """Classify convergence as exponential or genuinely ``1/n``.

    Trigger: the first rung ``l1 >= l0`` whose deviation from the proxy
    exceeds ``4 exp(-c1 l1)`` (and the noise floor).  Once triggered, the
    halving cascade ``|lambda_{2^k l1} - proxy| > 2^-(k+1) |lambda_{l1} -
    proxy|`` must hold on every later rung for a ``one_over_n`` verdict.
    Untriggered series are ``exponential`` when the Richardson second
    differences stay under ``exp(-c1 l)`` (or the floor) and the weighted
    deviations ``l * |lambda_l - proxy|`` die out rather than plateau;
    anything else is ``inconclusive``.

    ``noise_floor`` admits Monte Carlo series: structure below the floor
    is treated as unresolved zero, exactly like the degenerate constant
    case.
    """
    if c1 <= 0.0:
        raise ValidationError("c1 must be positive")
    if series.scales[-1] < 4 * l0:
        raise ValidationError("ladder too short: need scales up to at least 4*l0")
    # working-precision floor: exponent differences below it are float noise
    noise_floor = max(noise_floor, 1e-12 * max(1.0, abs(series.proxy_limit)))
    scales = series.scales
    devs = {n: abs(v - series.proxy_limit) for n, v in zip(scales, series.values)}

    evidence = [(n, abs(series.proxy_limit - 2.0 * v2 + v), 4.0 * exp(-c1 * n))
                for n, v, v2 in zip(scales, series.values, series.values[1:])]

    # trigger scan
    trigger = None
    for n in scales:
        if n >= l0 and devs[n] > max(4.0 * exp(-c1 * n), noise_floor):
            trigger = n
            break

    if trigger is not None:
        base_dev = devs[trigger]
        cascade_ok = True
        k = 1
        while trigger * 2**k in devs:
            if devs[trigger * 2**k] <= base_dev / 2.0 ** (k + 1):
                cascade_ok = False
                break
            k += 1
        cls = "one_over_n" if cascade_ok else "inconclusive"
    else:
        tail = [(n, s, thr) for n, s, thr in evidence if n >= l0]
        second_ok = all(s <= max(thr, noise_floor) for _, s, thr in tail)
        weighted = [n * devs[n] for n in scales if n >= l0]  # non-empty: the ladder reaches 4 l0
        shrinking = weighted[-1] <= 0.5 * weighted[0] + 1e-14 or devs[scales[-1]] <= noise_floor
        cls = "exponential" if (second_ok and shrinking) else "inconclusive"

    # empirical decay rate of the second differences resolved above the
    # floor; a 1/n series has no exponential rate to report
    resolved = [(n, s) for n, s, _ in evidence if s > noise_floor]
    c1_est = None
    if cls != "one_over_n" and len(resolved) >= 2:
        xs = np.array([n for n, _ in resolved], dtype=np.float64)
        ys = np.log(np.array([s for _, s in resolved]))
        slope = float(np.polyfit(xs, ys, 1)[0])
        c1_est = max(-slope, 0.0)
    return DichotomyVerdict(classification=cls, c1=c1, c1_est=c1_est, trigger_scale=trigger,
                            evidence=tuple(evidence), noise_floor=noise_floor)


# -- parameter regularity ------------------------------------------------------


@dataclass(frozen=True)
class HolderEstimate:
    """Log-log regression of exponent differences against parameter
    distance over deterministic low-discrepancy pairs; the exponents alone
    determine it, and the family declares no Hölder constant.
    ``gamma_est`` and ``residual`` are ``None`` under ``zero_variation``
    (fewer than two resolved pairs leave nothing to regress)."""

    j: int
    window: tuple[float, float]
    n: int
    gamma_est: float | None
    residual: float | None
    kappa_min: float | None  # None for d = 1, where the gap is vacuous
    pairs_used: int
    pairs_excluded: int
    zero_variation: bool
    stretched_sigma: float | None = None  # weaker-modulus fit, emitted for nu >= 2
    pair_rows: tuple[tuple[float, float], ...] = ()  # (distance, |dLambda|)


_GOLDEN = 0.6180339887498949


def _holder_pairs(window, decades: int, per_decade: int, seed: int):
    """Deterministic low-discrepancy pairs spanning the requested decades
    of parameter distance."""
    lo, hi = window
    width = hi - lo
    offset = ((seed * 2654435761) % 2**32) / 2**32
    pairs = []
    i = 0
    for k in range(decades):
        delta = width * 10.0 ** (-(k + 1))
        for _ in range(per_decade):
            t = (offset + i * _GOLDEN) % 1.0
            a = lo + t * (width - delta)
            pairs.append((a, a + delta))
            i += 1
    return pairs


def holder_estimate(
    fam: CocycleFamily,
    j: int,
    window: tuple[float, float],
    n: int,
    m: int,
    pair_budget: int = 24,
    kappa: float = 0.05,
    seed: int = 0,
    decades: int = 4,
) -> HolderEstimate:
    """Hölder exponent of ``E -> lambda_{j,n}(E)`` over a window.

    Refuses unless ``kappa_min``, the least consecutive gap of the
    finite-scale exponents at five probes across the window, exceeds
    ``kappa``; only then are all pair endpoints run as one stacked ladder.
    For ``d = 1`` the gap is vacuous: no probe runs and ``kappa_min`` is None.
    Pairs with exponent difference below ten times the quadrature
    tolerance are excluded (and counted): they are below the resolution
    of the grid averages.  The gap check is the only refusal: the family
    declares no Hölder constant to hold the fit against.
    """
    if not 1 <= j <= fam.dim:
        raise ValidationError(f"exponent index j={j} out of range 1..{fam.dim}")
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ValidationError("window must have positive width")
    kappa_min = None
    if fam.dim > 1:
        spec = fam.finite_scale_exponents(np.linspace(lo, hi, 5), n, m)
        kappa_min = float(np.min(spec[:, :-1] - spec[:, 1:]))
        if not kappa_min > kappa:
            raise NumericalRefusal(
                f"gap check failed on the window: min gap {kappa_min:.6g} <= kappa {kappa}"
            )
    decades = max(3, int(decades))
    per_decade = max(1, pair_budget // decades)
    pairs = _holder_pairs((lo, hi), decades, per_decade, seed)
    lam = fam.exponent_ladder(np.array(pairs).reshape(-1), (n,), m, j)[n]
    rows = []
    excluded = 0
    for (a, b), la, lb in zip(pairs, lam[0::2], lam[1::2]):
        dist = abs(b - a)
        dlam = abs(lb - la)
        if dlam < 10.0 * QUADRATURE_TOL:
            excluded += 1
            continue
        rows.append((dist, dlam))
    common = dict(j=j, window=(lo, hi), n=n, kappa_min=kappa_min, pairs_used=len(rows),
                  pairs_excluded=excluded, pair_rows=tuple(rows))
    if len(rows) < 2:
        return HolderEstimate(gamma_est=None, residual=None, zero_variation=True, **common)
    x = np.log(np.array([r[0] for r in rows]))
    y = np.log(np.array([r[1] for r in rows]))
    a_mat = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(a_mat, y, rcond=None)
    residual = float(np.sqrt(np.mean((a_mat @ coef - y) ** 2)))
    sigma = None
    if fam.base.nu >= 2:
        # weaker modulus |dLambda| ~ C exp(-c |log dist|^sigma)
        best = None
        for sig in np.linspace(0.1, 0.95, 18):
            design = np.stack([-np.abs(x) ** sig, np.ones_like(x)], axis=1)
            cf, *_ = np.linalg.lstsq(design, y, rcond=None)
            res = float(np.sqrt(np.mean((design @ cf - y) ** 2)))
            if best is None or res < best[0]:
                best = (res, float(sig))
        _, sigma = best
    return HolderEstimate(gamma_est=float(coef[0]), residual=residual, zero_variation=False,
                          stretched_sigma=sigma, **common)
