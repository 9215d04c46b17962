"""The avalanche principle as a checkable statement about finite matrix
sequences.

For invertible ``A_1..A_n`` in which every factor has a dominant simple
singular direction (top-to-second singular value gap at least ``mu``)
and no adjacent pair cancels (pair norm ratio above ``mu^(-1/4)``), the
log-norm of the full product equals the alternating sum of single and
pair log-norms up to ``O(n / sqrt(mu))``.  This module certifies the
hypotheses, computes the discrepancy of that identity with overflow-safe
scaled products, brackets the consecutive stretch-direction overlaps by
the pair-norm ratios, and builds the rank-1 / rank-2 projection families
that show where the mechanism lives and where it genuinely fails.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .errors import NumericalRefusal, ValidationError

#: acceptance constant for the discrepancy bound ``C * n / sqrt(mu)``: the
#: underlying absolute constant is not pinned by theory, so a generous but
#: falsifiable value is asserted and the measured ratio is reported.
C_IMPL = 100.0

#: below this relative top-gap the dominant direction is ill-defined and
#: hypothesis checks refuse instead of silently perturbing
DEGENERATE_GAP_RTOL = 1e-8


def _validated_factors(matrices) -> list[np.ndarray]:
    mats = [np.asarray(m, dtype=np.float64) for m in matrices]
    if len(mats) < 2:
        raise ValidationError("need at least two factors")
    d = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.shape != (d, d):
            raise ValidationError(f"factor {i} has shape {m.shape}, expected ({d},{d})")
        linalg.require_invertible(m, context=f"factor {i}")
    return mats


def scaled_log_norm(matrices) -> float:
    """``log || A_n ... A_1 ||`` of an ordered factor list (index 0 applied
    first), accumulated with per-step renormalization."""
    prod = None
    logs = 0.0
    for m in matrices:
        a = np.asarray(m, dtype=np.float64)
        prod = a if prod is None else a @ prod
        nrm = linalg.operator_norm(prod)
        if nrm <= 0.0:
            raise NumericalRefusal("zero product norm in scaled accumulation")
        prod = prod / nrm
        logs += float(np.log(nrm))
    return logs


@dataclass(frozen=True)
class APReport:
    """Hypothesis flags and certified quantities for one factor sequence.

    ``mu`` is the certified gap: the largest value for which every factor
    satisfies ``norm >= second_value * mu``, i.e. ``min_j norms/seconds``.
    """

    n: int
    dim: int
    norms: np.ndarray
    second_values: np.ndarray
    gaps: np.ndarray
    mu: float
    pair_norms: np.ndarray
    pair_ratios: np.ndarray
    cond_dominant_direction: bool
    cond_mu_floor: bool
    cond_no_cancellation: bool
    discrepancy: float | None = None
    bound: float | None = None

    @property
    def hypotheses_hold(self) -> bool:
        return (
            self.cond_dominant_direction
            and self.cond_mu_floor
            and self.cond_no_cancellation
        )


def check_hypotheses(matrices, mu: float | None = None) -> APReport:
    """Evaluate the AP hypotheses for a factor sequence.

    With ``mu=None`` the certified gap ``min_j ||A_j|| / sigma_2(A_j)``
    is used (the tightest admissible choice); otherwise the caller's
    ``mu`` is tested as given.  Refuses 1x1 factors: they have no second
    singular value, so no gap and no dominant direction to certify.
    """
    mats = _validated_factors(matrices)
    n = len(mats)
    d = mats[0].shape[0]
    if d < 2:
        raise ValidationError("AP factors must be at least 2x2: a gap needs a second singular value")
    norms = np.empty(n)
    seconds = np.empty(n)
    for i, m in enumerate(mats):
        s = linalg.singular_values(m)
        norms[i] = s[0]
        seconds[i] = s[1]  # positive: every factor passed the invertibility check
    gaps = norms / seconds
    mu_cert = float(np.min(gaps))
    mu_used = mu_cert if mu is None else float(mu)
    if mu_used <= 0.0:
        raise ValidationError("mu must be positive")

    pair_norms = np.empty(n - 1)
    for j in range(n - 1):
        pair_norms[j] = linalg.operator_norm(mats[j + 1] @ mats[j])
    pair_ratios = pair_norms / (norms[1:] * norms[:-1])

    # compare gap ratios, not the product norms >= seconds*mu: at the factor
    # that defines the certified mu the product form can miss by one ulp
    cond_a = bool(np.all(gaps >= mu_used))
    cond_b = bool(mu_used >= 16.0 * n * n)
    cond_c = bool(np.all(norms[1:] * norms[:-1] < mu_used**0.25 * pair_norms))
    return APReport(
        n=n,
        dim=d,
        norms=norms,
        second_values=seconds,
        gaps=gaps,
        mu=mu_used,
        pair_norms=pair_norms,
        pair_ratios=pair_ratios,
        cond_dominant_direction=cond_a,
        cond_mu_floor=cond_b,
        cond_no_cancellation=cond_c,
    )


def ap_discrepancy(matrices) -> float:
    """``| log||A_n...A_1|| + sum_{j=2}^{n-1} log||A_j|| -
    sum_{j=1}^{n-1} log||A_{j+1} A_j|| |``.

    Full product and pair norms go through the same scaled accumulation,
    so the ``n = 2`` case cancels exactly.
    """
    mats = _validated_factors(matrices)
    n = len(mats)
    total = scaled_log_norm(mats)
    middle = sum(scaled_log_norm([mats[j]]) for j in range(1, n - 1))
    pairs = sum(scaled_log_norm(mats[j : j + 2]) for j in range(n - 1))
    return abs(total + middle - pairs)


def verify(matrices, mu: float | None = None) -> APReport:
    """Full report: hypotheses, discrepancy, and the asserted bound."""
    report = check_hypotheses(matrices, mu=mu)
    disc = ap_discrepancy(matrices)
    bound = C_IMPL * report.n / np.sqrt(report.mu)
    return replace(report, discrepancy=disc, bound=float(bound))


@dataclass(frozen=True)
class OverlapBracket:
    """Consecutive stretch-direction overlaps against pair-norm ratios."""

    overlaps: np.ndarray  # |projection of A_j's stretched direction onto the next top direction|
    pair_ratios: np.ndarray
    mu: float
    lower: np.ndarray  # pair_ratios - 2/mu
    upper: np.ndarray  # pair_ratios + 1/mu
    violations: np.ndarray  # boolean per adjacent pair

    @property
    def ok(self) -> bool:
        return not bool(np.any(self.violations))


def overlap_bracket(matrices, report: APReport) -> OverlapBracket:
    """Compute top-direction overlaps and check the two-sided pair-ratio
    bracket.

    ``report`` is :func:`check_hypotheses` (or :func:`verify`) of the same
    matrices; its pair ratios and ``mu`` set the bracket, so the factors
    are not validated a second time.

    For each factor, the top right-singular direction is where the
    dominant stretch happens; its image line must nearly align with the
    next factor's top direction for the product to avalanche.  Refuses
    when a factor's top singular value is degenerate (relative gap below
    ``1e-8``): the mechanism requires lines, not planes.
    """
    mats = [np.asarray(m, dtype=np.float64) for m in matrices]
    n = len(mats)
    d = mats[0].shape[0]
    if (n, d) != (report.n, report.dim):
        raise ValidationError("report does not describe these matrices")
    tops = []
    images = []
    for i, m in enumerate(mats):
        res = linalg.svd(m)
        s = res.singular_values
        if (s[0] - s[1]) <= DEGENERATE_GAP_RTOL * s[0]:
            raise NumericalRefusal(
                f"AP hypotheses unverifiable: factor {i} has a degenerate "
                f"top singular value (relative gap {(s[0]-s[1])/s[0]:.2e})"
            )
        tops.append(res.right_factor[:, 0])
        img = m @ res.right_factor[:, 0]
        images.append(img / np.linalg.norm(img))
    overlaps = np.array(
        [abs(float(np.vdot(tops[j + 1], images[j]))) for j in range(n - 1)]
    )
    lower = report.pair_ratios - 2.0 / report.mu
    upper = report.pair_ratios + 1.0 / report.mu
    slack = 1e-12
    violations = (overlaps < lower - slack) | (overlaps > upper + slack)
    return OverlapBracket(
        overlaps=overlaps,
        pair_ratios=report.pair_ratios,
        mu=report.mu,
        lower=lower,
        upper=upper,
        violations=violations,
    )


# -- projection families ---------------------------------------------------------


@dataclass(frozen=True)
class ProjectionDemo:
    mode: str
    eps: float
    matrices: list[np.ndarray]
    norms: np.ndarray
    pair_norms: np.ndarray
    discrepancy: float


def projection_demo(thetas, eps: float, mode: str) -> ProjectionDemo:
    """Rank-1 and rank-2 projection families in R^3.

    ``rank1`` builds ``A_j = P_j + eps (1 - P_j)`` over rank-1 projections
    whose ranges turn by the given consecutive angles; as ``eps -> 0`` the
    discrepancy vanishes.  ``rank2`` builds ``A_j = (1 - P_j) + eps P_j``,
    whose dominant subspaces are planes: every pair norm is exactly 1
    because two planes in R^3 always intersect, and the avalanche
    mechanism genuinely fails.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.ndim != 1 or thetas.size < 1:
        raise ValidationError("need at least one angle (n = len(thetas) + 1 >= 2)")
    if not 0.0 < eps <= 1.0:
        raise ValidationError("eps must lie in (0, 1]")
    if mode not in ("rank1", "rank2"):
        raise ValidationError(f"unknown mode {mode!r}")
    phis = np.concatenate([[0.0], np.cumsum(thetas)])
    mats = []
    for phi in phis:
        u = np.array([np.cos(phi), np.sin(phi), 0.0])
        proj = np.outer(u, u)
        if mode == "rank1":
            mats.append(proj + eps * (np.eye(3) - proj))
        else:
            mats.append((np.eye(3) - proj) + eps * proj)
    norms = np.array([linalg.operator_norm(m) for m in mats])
    pair_norms = np.array(
        [linalg.operator_norm(mats[j + 1] @ mats[j]) for j in range(len(mats) - 1)]
    )
    return ProjectionDemo(
        mode=mode,
        eps=float(eps),
        matrices=mats,
        norms=norms,
        pair_norms=pair_norms,
        discrepancy=ap_discrepancy(mats),
    )


def projection_sweep(thetas, eps_values, mode: str) -> list[ProjectionDemo]:
    return [projection_demo(thetas, eps, mode) for eps in eps_values]
