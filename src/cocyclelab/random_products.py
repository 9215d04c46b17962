"""I.i.d. random matrix products: the Monte Carlo exponent ladder,
large-deviation probabilities and the rate verdict of :func:`rate_report`.

Randomness is counter-based and splittable: every trial owns a Philox
stream keyed ``(seed, stream_id)``, so results are independent of how
streams are chunked, and identical ``(seed, stream_id, n)`` always
reproduces the same draw.  The streams of a pass come from one Philox
re-keyed per stream (:meth:`MatrixDistribution.draw_table`), with the
bits of a new generator per stream.  Ladders reuse the same streams
across scales (the length-``n`` product is a prefix of the length-``2n``
one), which sharpens doubling differences by common random numbers, and one
checkpointed pass serves every scale of a report.  Products go through
:func:`linalg.scaled_product`, the same renormalised accumulator as the
orbit kernel.

A factor is a function of one compact draw per step: the support index
of a finite-support distribution (in the smallest unsigned integer type
that holds it), or the angle of ``uniform_rotation``.  The kernel holds
only the ``(n, T)`` draws of its ``T`` streams and turns each step's row
of draws into a lanes-last factor stack when the product asks for it.

Strong irreducibility and contraction of a distribution are not
algorithmically certifiable; the shipped example distributions satisfy
them by construction; the rate verdict assumes them, it does not test
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import NumericalRefusal, ValidationError
from .rates import DichotomyVerdict, RateSeries, dichotomy
from .util import pairwise_mean

#: Philox keys are ``(seed, stream_id)`` mod 2^64
_KEY_MASK = 2**64 - 1
#: uniforms held at once by :meth:`MatrixDistribution.draw_table`
_CHUNK_UNIFORMS = 1 << 16


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
    #: the support matrices lanes-last, ``(d, d, K)``, and their cumulative
    #: probabilities, both derived from ``support``
    _lanes: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _cum: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.support is None) == (self.sampler is None):
            raise ValidationError("exactly one of support/sampler must be given")
        if self.support is not None:
            mats = [np.asarray(m, dtype=np.float64) for m, _ in self.support]
            if not mats:
                raise ValidationError("empty support")
            if any(a.shape != (self.dim, self.dim) for a in mats):
                raise ValidationError("support matrix shape mismatch")
            lanes = np.stack(mats, axis=2)
            finite = np.all(np.isfinite(lanes), axis=(0, 1))
            if not np.all(finite):
                raise ValidationError(
                    f"support matrix {np.argmin(finite)} has non-finite entries")
            ok = linalg.invertible(*linalg.extreme_singular_values_batch(lanes.transpose(2, 0, 1)))
            if not np.all(ok):
                raise NumericalRefusal(
                    f"support matrix {np.argmin(ok)} is numerically singular "
                    f"(singular value ratio below {linalg.INVERTIBILITY_RTOL:g})")
            probs = [float(prob) for _, prob in self.support]
            if any(prob < 0.0 for prob in probs):
                raise ValidationError("negative probability")
            cum = np.cumsum(probs)  # summed in order, so cum[-1] is the total
            if not abs(cum[-1] - 1.0) <= 1e-12:  # a nan probability too
                raise ValidationError(f"probabilities sum to {cum[-1]}, not 1")
            object.__setattr__(self, "support", tuple(zip(mats, probs)))
            object.__setattr__(self, "_lanes", lanes)
            object.__setattr__(self, "_cum", cum)
        elif self.sampler not in ("uniform_rotation",):
            raise ValidationError(f"unknown sampler {self.sampler!r}")
        elif self.dim != 2:
            raise ValidationError("uniform_rotation sampler requires dim 2")

    def draw_table(self, streams, n: int) -> np.ndarray:
        """The first ``n`` draws of each stream of ``streams``, column ``t``
        for ``streams[t]``: an ``(n, T)`` array of support indices in the
        smallest unsigned type that holds them, or of rotation angles.

        Stream ``sid`` is Philox keyed ``(seed, sid)``, both words mod
        ``2^64``, from counter 0.  Philox is counter-based (Salmon et al.,
        SC'11), so one bit generator set to that key, counter 0 and an empty
        buffer gives the bits of a new ``Philox(key=...)``, at about a tenth
        of its cost (no new generator, no discarded OS-entropy seed).  Up to
        ``_CHUNK_UNIFORMS`` uniforms at a time go through one buffer; ``u``
        picks the index ``#{i < K - 1: cum_i <= u}`` (the inverse CDF, with
        a ``u`` past the rounded total on the last matrix), exactly, by the
        ``ceil(log2 K)``-level bisection :func:`_bisect_right`, or the angle
        ``2 pi u``."""
        streams = [int(sid) & _KEY_MASK for sid in streams]
        bitgen = np.random.Philox(key=np.array([self.seed & _KEY_MASK, 0], dtype=np.uint64))
        gen, state = np.random.Generator(bitgen), bitgen.state
        key = state["state"]["key"]
        dtype = np.float64 if self.support is None else np.min_scalar_type(len(self._cum) - 1)
        out = np.empty((n, len(streams)), dtype=dtype)
        width = max(1, _CHUNK_UNIFORMS // max(n, 1))
        buf = np.empty((min(width, len(streams)), n))
        for start in range(0, len(streams), width):
            ids = streams[start:start + width]
            chunk, cols = buf[:len(ids)], out[:, start:start + len(ids)]
            for row, sid in zip(chunk, ids):
                key[1] = sid
                bitgen.state = state
                gen.random(out=row)
            if self.support is None:
                np.multiply(chunk.T, 2.0 * np.pi, out=cols)
            else:
                cols[...] = _bisect_right(self._cum[:-1], chunk).T
        return out

    def factors(self, draws: np.ndarray) -> np.ndarray:
        """The factors of a 1-d array of draws as a lanes-last ``(m, d, d)``
        stack: the transposed view of a C-contiguous ``(d, d, m)`` array."""
        if self.support is not None:
            return np.take(self._lanes, draws, axis=2).transpose(2, 0, 1)
        c, s = np.cos(draws), np.sin(draws)
        out = np.empty((2, 2, len(draws)))
        out[0, 0], out[0, 1], out[1, 0], out[1, 1] = c, -s, s, c
        return out.transpose(2, 0, 1)

    def sample_sequence(self, stream_id: int, n: int) -> np.ndarray:
        """The first ``n`` factors of stream ``stream_id``, shape (n, d, d)."""
        return self.factors(self.draw_table((stream_id,), n)[:, 0])


def _bisect_right(thresholds: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``#{i : thresholds[i] <= u}`` per entry of ``u`` for ascending
    thresholds: a branch-free bisection over the lanes (Khuong and Morin,
    ACM JEA 22, 2017) on the table padded with ``+inf`` to a power of two."""
    size = 1 << len(thresholds).bit_length()
    pad = np.full(size, np.inf)
    pad[:len(thresholds)] = thresholds
    step = size >> 1  # level one probes one scalar: the +inf pad if step is 0
    mask = np.greater_equal(u, pad[step - 1])
    count = np.multiply(mask, step, dtype=np.intp)
    vals, probe, step = np.empty(u.shape), np.empty_like(count), step >> 1
    while step:
        np.add(count, step - 1, out=probe)
        np.take(pad, probe, out=vals, mode="clip")
        np.less_equal(vals, u, out=mask)
        np.multiply(mask, step, out=probe)
        count += probe
        step >>= 1
    return count


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
    Stream ``t`` fills column ``t`` of an ``(n, T)`` draw array, and step
    ``j``'s row becomes one lanes-last factor stack only when the product
    asks for it; :func:`linalg.scaled_product` holds no factor stack."""
    draws = dist.draw_table(streams, n)
    return linalg.scaled_product(lambda j: dist.factors(draws[j - 1]), n, checkpoints)


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
    if not scales:
        raise ValidationError("scales must be non-empty")
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
