"""I.i.d. random matrix products: the Monte Carlo exponent ladder,
large-deviation probabilities and the rate verdict of :func:`rate_report`.

Randomness is counter-based and splittable: every trial owns a Philox
stream keyed ``(seed, stream_id)``, so results are independent of worker
count and schedule, and identical ``(seed, stream_id, n)`` always
reproduces the same draw.  Ladders reuse the same streams across scales
(the length-``n`` product is a prefix of the length-``2n`` one), which
sharpens doubling differences by common random numbers, and one
checkpointed pass serves every scale of a report.  Products go through
:func:`linalg.scaled_product`, the same renormalised accumulator as the
orbit kernel.

Strong irreducibility and contraction of a distribution are not
algorithmically certifiable; the shipped example distributions satisfy
them by construction; the rate verdict assumes them, it does not test
them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ValidationError
from .rates import DichotomyVerdict, RateSeries, dichotomy
from .util import pairwise_mean


@dataclass(frozen=True)
class MatrixDistribution:
    """A probability distribution on GL(d): finite support or a named
    parametric sampler.

    Finite-support distributions have exponential moments trivially; a
    parametric sampler must document that property itself (the shipped
    ``uniform_rotation`` is supported on isometries, so it does).
    """

    dim: int
    seed: int
    support: tuple[tuple[np.ndarray, float], ...] | None = None
    sampler: str | None = None

    def __post_init__(self):
        if (self.support is None) == (self.sampler is None):
            raise ValidationError("exactly one of support/sampler must be given")
        if self.support is not None:
            mats = []
            total = 0.0
            for m, prob in self.support:
                a = np.asarray(m, dtype=np.float64)
                if a.shape != (self.dim, self.dim):
                    raise ValidationError("support matrix shape mismatch")
                linalg.require_invertible(a, context="support matrix")
                if prob < 0.0:
                    raise ValidationError("negative probability")
                mats.append((a, float(prob)))
                total += float(prob)
            if abs(total - 1.0) > 1e-12:
                raise ValidationError(f"probabilities sum to {total}, not 1")
            object.__setattr__(self, "support", tuple(mats))
        elif self.sampler not in ("uniform_rotation",):
            raise ValidationError(f"unknown sampler {self.sampler!r}")
        elif self.dim != 2:
            raise ValidationError("uniform_rotation sampler requires dim 2")

    def generator(self, stream_id: int) -> np.random.Generator:
        return np.random.Generator(
            np.random.Philox(key=[self.seed & (2**64 - 1), stream_id & (2**64 - 1)])
        )

    def sample_sequence(self, stream_id: int, n: int) -> np.ndarray:
        """The first ``n`` factors of stream ``stream_id``, shape (n, d, d)."""
        gen = self.generator(stream_id)
        if self.support is not None:
            mats = np.stack([m for m, _ in self.support])
            cum = np.cumsum([p for _, p in self.support])
            idx = np.searchsorted(cum, gen.random(n), side="right")
            return mats[np.minimum(idx, len(self.support) - 1)]
        angles = 2.0 * np.pi * gen.random(n)
        out = np.empty((n, 2, 2))
        out[:, 0, 0] = np.cos(angles)
        out[:, 0, 1] = -np.sin(angles)
        out[:, 1, 0] = np.sin(angles)
        out[:, 1, 1] = np.cos(angles)
        return out


# -- shipped example distributions ----------------------------------------------


def single_matrix(matrix, seed: int = 0) -> MatrixDistribution:
    m = np.asarray(matrix, dtype=np.float64)
    return MatrixDistribution(dim=m.shape[0], seed=seed, support=((m, 1.0),))


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def two_rotations(alpha: float, beta: float, seed: int = 0) -> MatrixDistribution:
    """Equal mixture of two rotations: supported on isometries, exponent 0."""
    return MatrixDistribution(
        dim=2,
        seed=seed,
        support=((_rotation(alpha), 0.5), (_rotation(beta), 0.5)),
    )


def rotated_stretch_pair(
    theta: float = 0.3, stretch: float = 2.0, seed: int = 0
) -> MatrixDistribution:
    """Equal mixture of ``R(+-theta) @ diag(s, 1/s)``: strongly irreducible
    and contracting by construction (no invariant finite union of lines;
    normalized powers of either factor converge to rank one), the standard
    positive-exponent example."""
    d = np.diag([stretch, 1.0 / stretch])
    return MatrixDistribution(
        dim=2,
        seed=seed,
        support=((_rotation(theta) @ d, 0.5), (_rotation(-theta) @ d, 0.5)),
    )


def stretch_or_rotate(
    stretch: float = 4.0, angle: float = 1.0, seed: int = 0
) -> MatrixDistribution:
    """Equal mixture of ``diag(s, 1/s)`` and a rotation: strongly
    irreducible and contracting, with per-step growth fluctuations
    comparable to the exponent itself, so finite-scale large-deviation
    events are actually observable."""
    return MatrixDistribution(
        dim=2,
        seed=seed,
        support=((np.diag([stretch, 1.0 / stretch]), 0.5), (_rotation(angle), 0.5)),
    )


def uniform_rotation(seed: int = 0) -> MatrixDistribution:
    return MatrixDistribution(dim=2, seed=seed, sampler="uniform_rotation")


# -- Monte Carlo kernels ----------------------------------------------------------


def _batched_lognorms(
    dist: MatrixDistribution, n: int, streams, checkpoints=None
) -> np.ndarray:
    """``log||Y_n...Y_1||`` per stream, checkpointed; shape (len(cps), T).
    Stream ``t`` is sampled into lane ``t`` of an ``(n, d, d, T)`` array, so
    every step's factor stack arrives lanes-last."""
    streams = list(streams)
    seqs = np.empty((n, dist.dim, dist.dim, len(streams)))
    for t, sid in enumerate(streams):
        seqs[..., t] = dist.sample_sequence(int(sid), n)
    return linalg.scaled_product((s.transpose(2, 0, 1) for s in seqs), n, checkpoints)


def _ld_fraction(logs: np.ndarray, n: int, delta: float, lambda1: float) -> float:
    if delta <= 0.0:
        raise ValidationError("delta must be positive")
    return float(np.count_nonzero(np.abs(logs - n * lambda1) > n * delta)) / logs.size


def _series(scales, logs) -> tuple[RateSeries, float]:
    """Monte Carlo ``lambda_hat_{1,n}`` along a dyadic ladder from the
    per-trial log-norms at ``scales``.  Returns the series and a noise
    floor of three times the worst rung stderr."""
    values = []
    stderrs = []
    for i, n in enumerate(scales):
        per_trial = logs[i] / n
        values.append(pairwise_mean(per_trial))
        stderrs.append(float(np.std(per_trial, ddof=1) / np.sqrt(per_trial.size)))
    series = RateSeries(j=1, scales=scales, values=tuple(values), stderrs=tuple(stderrs))
    return series, 3.0 * max(stderrs)


@dataclass(frozen=True)
class RandomRateReport:
    """CLI-facing bundle: exponent rows, large-deviation rows, verdict."""

    rows: tuple[tuple[int, float, float, int], ...]  # (n, estimate, stderr, trials)
    ld_rows: tuple[tuple[int, float, float], ...]  # (n, delta, probability)
    verdict: DichotomyVerdict


def rate_report(
    dist: MatrixDistribution,
    scales,
    trials: int,
    deltas=(),
    ld_scales=(),
    c1: float = 0.05,
) -> RandomRateReport:
    """Exponent rows, large-deviation rows and the rate verdict from one
    checkpointed pass over the union of ``scales`` and ``ld_scales``.

    The LD rows center every scale on ``lambda_ref``, the Monte Carlo
    exponent at the largest LD scale.  The stderr-derived noise floor
    marks deviations the trial budget cannot resolve: with enough trials
    a contracting distribution is classified ``exponential``, and
    ``inconclusive`` signals that noise dominates (reported, not hidden).
    At least two trials are needed for a stderr.
    """
    if trials < 2:
        raise ValidationError(f"need at least 2 trials for a stderr, got {trials}")
    scales = tuple(sorted(set(int(s) for s in scales)))
    ld_scales = tuple(int(n) for n in ld_scales) if deltas else ()
    cps = tuple(sorted(set(scales) | set(ld_scales)))
    logs = dict(zip(cps, _batched_lognorms(dist, cps[-1], range(trials), checkpoints=cps)))
    series, floor = _series(scales, [logs[n] for n in scales])
    l0 = min(series.scales[1], series.scales[-1] // 4)
    verdict = dichotomy(series, c1=c1, l0=l0, noise_floor=floor)
    rows = tuple(
        (n, v, se, trials)
        for n, v, se in zip(series.scales, series.values, series.stderrs)
    )
    ld_rows = ()
    if ld_scales:
        n_ref = max(ld_scales)
        lam_ref = pairwise_mean(logs[n_ref] / n_ref)
        ld_rows = tuple(
            (n, float(delta), _ld_fraction(logs[n], n, delta, lam_ref))
            for n in sorted(ld_scales) for delta in deltas
        )
    return RandomRateReport(rows=rows, ld_rows=ld_rows, verdict=verdict)
