"""The avalanche principle as a checkable statement about finite matrix
sequences.

For invertible ``A_1..A_n`` in which every factor has a dominant simple
singular direction (top-to-second singular value gap at least ``mu``)
and no adjacent pair cancels (pair norm ratio above ``mu^(-1/4)``), the
log-norm of the full product equals the alternating sum of single and
pair log-norms up to ``O(n / sqrt(mu))`` (Goldstein-Schlag, Ann. of
Math. 154, 2001).  :func:`verify` certifies the hypotheses and computes
the discrepancy of that identity with overflow-safe scaled products;
:func:`overlap_bracket` brackets the consecutive stretch-direction
overlaps by the pair-norm ratios; the rank-1 / rank-2 projection
families (:func:`projection_matrices`, run through :func:`verify`) show
where the mechanism lives and where it genuinely fails.

Every number comes from one path, the one-sided Jacobi SVD of
:func:`linalg.svd`, whose only client this module is: it needs
``sigma_2`` and the top right-singular direction to relative accuracy.
One call on the stack of all ``n`` factors supplies the invertibility
check, ``sigma_1``, ``sigma_2`` and the top directions.  One call on the
stack of the ``n - 1`` scaled pair products ``A_{j+1} (A_j / ||A_j||)``
gives both the reported pair norms and the pair terms of the
discrepancy.  The running product of the full sequence, renormalised by
its norm after every factor, starts from the first factor and the first
scaled pair product; each of its ``n - 2`` later steps is one
single-matrix call, which :func:`linalg.svd` runs wholly in Python floats
with the bits of a stack of one.  :func:`overlap_bracket` forms the
images of the ``n - 1`` top directions in one batched matmul.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _factors(matrices) -> list[np.ndarray]:
    """The factors as float arrays: at least two, all of one square shape."""
    mats = [np.asarray(m, dtype=np.float64) for m in matrices]
    if len(mats) < 2:
        raise ValidationError("need at least two factors")
    d = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.shape != (d, d):
            raise ValidationError(f"factor {i} has shape {m.shape}, expected ({d},{d})")
    return mats


def _decompose(mats):
    """The SVD of every factor, which also checks that each is invertible,
    their norms, the scaled pair products ``A_{j+1} (A_j / ||A_j||)`` and
    the norms of those.

    One Jacobi SVD covers the factors and one the pair products.  A scaled
    pair product is the second step of the running product of
    :func:`_discrepancy` on ``A_j, A_{j+1}``, so ``log ||A_j|| + log`` of
    its norm is that pair's scaled log-norm bit for bit.
    """
    stack = np.array(mats)
    svds = linalg.require_invertible(stack, context="factor")
    norms = svds.singular_values[:, 0]
    products = stack[1:] @ (stack[:-1] / norms[:-1, np.newaxis, np.newaxis])
    scaled_pairs = linalg.svd(products, compute_uv=False)[:, 0]
    return svds, norms, products, scaled_pairs


def _discrepancy(mats, norms, products, scaled_pairs) -> float:
    """The AP discrepancy, with ``log ||A_n ... A_1||`` from a running
    product renormalised by its norm after every factor.

    Its first two steps are the first factor and the first scaled pair
    product, whose norms :func:`_decompose` has taken, so ``n = 2``
    cancels exactly; every later step is one more single-matrix SVD.
    """
    def log_norm(nrm) -> float:
        if nrm <= 0.0:
            raise NumericalRefusal("zero product norm in scaled accumulation")
        return float(np.log(nrm))

    total = log_norm(norms[0])
    prod, nrm = products[0], scaled_pairs[0]
    for a in mats[2:]:
        total += log_norm(nrm)
        prod = a @ (prod / nrm)
        nrm = linalg.svd(prod, compute_uv=False)[0]
    total += log_norm(nrm)
    logs = [float(np.log(x)) for x in norms]
    middle = sum(logs[1:-1])
    pairs = sum(logs[j] + float(np.log(s)) for j, s in enumerate(scaled_pairs))
    return abs(total + middle - pairs)


@dataclass(frozen=True)
class APReport:
    """Hypothesis flags, certified quantities and the discrepancy of one
    factor sequence.

    ``mu`` is the certified gap: the largest value for which every factor
    satisfies ``norm >= second_value * mu``, i.e. ``min_j norms/seconds``.
    ``directions[j]`` is the top right-singular vector of ``A_j``, and
    ``factors`` are the validated ``A_j`` the report describes.
    """

    n: int
    dim: int
    factors: tuple[np.ndarray, ...]
    norms: np.ndarray
    second_values: np.ndarray
    directions: np.ndarray
    gaps: np.ndarray
    mu: float
    pair_norms: np.ndarray
    pair_ratios: np.ndarray
    cond_dominant_direction: bool
    cond_mu_floor: bool
    cond_no_cancellation: bool
    discrepancy: float
    bound: float

    @property
    def hypotheses_hold(self) -> bool:
        return (
            self.cond_dominant_direction
            and self.cond_mu_floor
            and self.cond_no_cancellation
        )


def verify(matrices, mu: float | None = None) -> APReport:
    """Evaluate the AP hypotheses, the discrepancy and the asserted bound
    ``C_IMPL * n / sqrt(mu)``.

    With ``mu=None`` the certified gap ``min_j ||A_j|| / sigma_2(A_j)``
    is used (the tightest admissible choice); otherwise the caller's
    ``mu`` is tested as given.  Refuses 1x1 factors: they have no second
    singular value, so no gap and no dominant direction to certify, and
    that refusal comes before any SVD.
    """
    mats = _factors(matrices)
    n = len(mats)
    d = mats[0].shape[0]
    if d < 2:
        raise ValidationError("AP factors must be at least 2x2: a gap needs a second singular value")
    svds, norms, products, scaled_pairs = _decompose(mats)
    # positive: every factor passed the invertibility check
    seconds = svds.singular_values[:, 1]
    gaps = norms / seconds
    mu_cert = float(np.min(gaps))
    mu_used = mu_cert if mu is None else float(mu)
    if mu_used <= 0.0:
        raise ValidationError("mu must be positive")

    with np.errstate(over="ignore"):
        neighbours = norms[1:] * norms[:-1]
    if not np.all(np.isfinite(neighbours) & (neighbours > 0.0)):
        raise NumericalRefusal("a product of neighbouring factor norms leaves the float range")
    pair_norms = norms[:-1] * scaled_pairs
    pair_ratios = pair_norms / neighbours

    # compare gap ratios, not the product norms >= seconds*mu: at the factor
    # that defines the certified mu the product form can miss by one ulp
    cond_a = bool(np.all(gaps >= mu_used))
    cond_b = bool(mu_used >= 16.0 * n * n)
    cond_c = bool(np.all(neighbours < mu_used**0.25 * pair_norms))
    return APReport(
        n=n,
        dim=d,
        factors=tuple(mats),
        norms=norms,
        second_values=seconds,
        directions=svds.right_factor[:, :, 0],
        gaps=gaps,
        mu=mu_used,
        pair_norms=pair_norms,
        pair_ratios=pair_ratios,
        cond_dominant_direction=cond_a,
        cond_mu_floor=cond_b,
        cond_no_cancellation=cond_c,
        discrepancy=_discrepancy(mats, norms, products, scaled_pairs),
        bound=float(C_IMPL * n / np.sqrt(mu_used)),
    )


@dataclass(frozen=True)
class OverlapBracket:
    """Consecutive stretch-direction overlaps against pair-norm ratios."""

    overlaps: np.ndarray  # |projection of A_j's stretched direction onto the next top direction|
    violations: np.ndarray  # outside [pair_ratio - 2/mu, pair_ratio + 1/mu], per adjacent pair


def overlap_bracket(report: APReport) -> OverlapBracket:
    """Compute top-direction overlaps and check the two-sided pair-ratio
    bracket.

    The factors, top directions, pair ratios and ``mu`` of ``report`` (a
    :func:`verify` result) are used as they are, so no factor is
    decomposed a second time.

    For each factor, the top right-singular direction is where the
    dominant stretch happens; its image line must nearly align with the
    next factor's top direction for the product to avalanche.  The images
    are one batched matmul; each is normalised and projected alone, since
    a batched norm or dot product would move bits.  Refuses
    when a factor's top singular value is degenerate (relative gap below
    ``1e-8``): the mechanism requires lines, not planes.
    """
    mats, n = report.factors, report.n
    s1, s2 = report.norms, report.second_values
    for i in range(n):
        if (s1[i] - s2[i]) <= DEGENERATE_GAP_RTOL * s1[i]:
            raise NumericalRefusal(
                f"AP hypotheses unverifiable: factor {i} has a degenerate "
                f"top singular value (relative gap {(s1[i]-s2[i])/s1[i]:.2e})"
            )
    dirs = report.directions
    imgs = np.matmul(np.array(mats[:-1]), dirs[:-1, :, np.newaxis])[..., 0]
    # exact; squares stay in range
    imgs = np.ldexp(imgs, -np.frexp(np.abs(imgs).max(axis=-1, keepdims=True))[1])
    overlaps = np.array([abs(float(np.vdot(v, img / np.linalg.norm(img))))
                         for v, img in zip(dirs[1:], imgs)])
    lower = report.pair_ratios - 2.0 / report.mu
    upper = report.pair_ratios + 1.0 / report.mu
    slack = 1e-12
    violations = (overlaps < lower - slack) | (overlaps > upper + slack)
    return OverlapBracket(overlaps=overlaps, violations=violations)


# -- projection families ---------------------------------------------------------


def projection_matrices(thetas, eps: float, mode: str) -> list[np.ndarray]:
    """Rank-1 and rank-2 projection families in R^3, for :func:`verify`.

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
    return mats
