import dataclasses
import inspect
import itertools
import tracemalloc

import numpy as np
import pytest

from cocyclelab import linalg, rates
from cocyclelab import random_products as rp
from cocyclelab.config import parse_config
from cocyclelab.errors import ConfigError, NumericalRefusal, ValidationError

# frozen after the first run under the fixed stream contract
PIN_SAMPLE_N100_S7 = 65.06448905447543  # rotated_stretch_pair(0.3, 2.0, seed=11)
PIN_FUR_EST = (0.64724090757090158, 4.0841717196313803e-05)  # n=1000, 400 trials
PIN_SOR_LD = (0.28749999999999998, 0.00050000000000000001)  # n=50 vs 400


def lognorm(dist, n: int, stream_id: int) -> float:
    """``log ||Y_n ... Y_1||`` of one stream."""
    return float(rp._batched_lognorms(dist, n, [stream_id])[0, 0])


def mc_exponent(dist, n: int, trials: int) -> tuple[float, float]:
    """Monte Carlo ``lambda_hat_{1,n}`` and its stderr over streams
    ``0..trials-1``: the top row of a two-rung ``rate_report``."""
    _, est, stderr, _ = rp.rate_report(dist, (n // 2, n), trials).rows[-1]
    return est, stderr


@pytest.fixture(scope="module")
def fur():
    return rp.rotated_stretch_pair(0.3, 2.0, seed=11)


@pytest.fixture(scope="module")
def sor():
    return rp.stretch_or_rotate(4.0, 1.0, seed=11)


class TestDistributionValidation:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            rp.MatrixDistribution(
                dim=2, seed=0, support=((np.eye(2), 0.5), (np.eye(2), 0.6))
            )

    def test_singular_support_rejected(self):
        with pytest.raises(Exception):
            rp.MatrixDistribution(dim=2, seed=0, support=((np.diag([1.0, 0.0]), 1.0),))

    def test_exactly_one_source(self):
        with pytest.raises(ValidationError):
            rp.MatrixDistribution(dim=2, seed=0)

    def test_unknown_sampler(self):
        with pytest.raises(ValidationError):
            rp.MatrixDistribution(dim=2, seed=0, sampler="gaussian")


class TestStreamContract:
    def test_identical_inputs_identical_outputs(self, fur):
        a = lognorm(fur, 100, 7)
        b = lognorm(fur, 100, 7)
        assert a == b

    def test_streams_are_distinct(self, fur):
        vals = {lognorm(fur, 50, s) for s in range(8)}
        assert len(vals) == 8

    def test_sequences_are_prefixes(self, fur):
        short = fur.sample_sequence(3, 5)
        long = fur.sample_sequence(3, 12)
        assert np.array_equal(short, long[:5])

    def test_batch_matches_singles(self, fur):
        batch = rp._batched_lognorms(fur, 40, [3, 7, 1])
        for col, sid in enumerate([3, 7, 1]):
            assert batch[0, col] == lognorm(fur, 40, sid)

    def test_pinned_sample(self, fur):
        assert abs(lognorm(fur, 100, 7) - PIN_SAMPLE_N100_S7) <= 1e-9


def philox_uniforms(seed: int, stream_id: int, n: int) -> np.ndarray:
    """The first ``n`` uniforms of stream ``stream_id``: a new Philox whose
    two key words are ``seed`` and ``stream_id`` mod 2^64."""
    key = np.array([seed % 2**64, stream_id % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random(n)


def reference_draws(dist, stream_id: int, n: int) -> np.ndarray:
    """The draws of one stream from its own Philox: the inverse-CDF index
    ``min(searchsorted(cum, u), K - 1)`` over the support, or ``2 pi u``."""
    u = philox_uniforms(dist.seed, stream_id, n)
    if dist.support is None:
        return 2.0 * np.pi * u
    cum = np.cumsum([p for _, p in dist.support])
    idx = np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
    return idx.astype(np.min_scalar_type(len(cum) - 1))


def sampled_factors(dist, stream_id: int, n: int) -> np.ndarray:
    """Reference sampler: the factors of one stream built straight from its
    reference draws, as an ``(n, d, d)`` array (the picked support matrix,
    or a rotation by the angle)."""
    draws = reference_draws(dist, stream_id, n)
    if dist.support is None:
        return np.stack([np.stack([np.cos(draws), -np.sin(draws)], -1),
                         np.stack([np.sin(draws), np.cos(draws)], -1)], -2)
    return np.stack([m for m, _ in dist.support])[draws]


def _support_dist(k: int, d: int, seed: int) -> rp.MatrixDistribution:
    rng = np.random.default_rng(seed)
    mats = np.eye(d) + 0.3 * rng.standard_normal((k, d, d))
    probs = rng.uniform(0.5, 1.5, k)
    probs /= probs.sum()
    probs[-1] = 1.0 - probs[:-1].sum()
    return rp.MatrixDistribution(dim=d, seed=seed, support=tuple(zip(mats, probs)))


KERNEL_DISTS = {
    "stretch-or-rotate": rp.stretch_or_rotate(seed=11),
    "three-3x3": _support_dist(3, 3, seed=12),
    "single-1x1": rp.single_matrix([[1.5]], seed=13),
    "uniform-rotation": rp.uniform_rotation(seed=14),
    "support-300": _support_dist(300, 2, seed=15),
}


class TestDrawKernel:
    """The kernel holds one compact draw per step and stream; each step's
    factors are built from that step's draws."""

    @pytest.mark.parametrize("name", KERNEL_DISTS)
    def test_kernel_equals_the_single_stream_route(self, name):
        # for uniform_rotation this also pins that cos/sin over a row of T
        # lanes give the values they give over one stream's n draws
        dist = KERNEL_DISTS[name]
        streams, n, cps = [4, 0, 9, 2, 17, 3, 30], 150, (1, 37, 64, 150)
        seqs = np.stack([dist.sample_sequence(s, n) for s in streams], axis=1)
        want = linalg.scaled_product(lambda j: seqs[j - 1], n, cps)
        assert np.array_equal(rp._batched_lognorms(dist, n, streams, cps), want)

    @pytest.mark.parametrize("name", KERNEL_DISTS)
    def test_sample_sequence_is_the_reference_sampler(self, name):
        dist = KERNEL_DISTS[name]
        got = dist.sample_sequence(6, 500)
        assert got.shape == (500, dist.dim, dist.dim)
        assert np.array_equal(got, sampled_factors(dist, 6, 500))

    @pytest.mark.parametrize("name", ["stretch-or-rotate", "support-300", "uniform-rotation"])
    @pytest.mark.parametrize("seed", [None, 2**64 - 1])
    def test_draw_table_is_one_philox_per_stream(self, name, seed):
        # uint8 and uint16 indices and angles, against a
        # new Philox per stream: one step, a chunk and one stream more,
        # unsorted ids, an id past 2^32, and the largest seed
        dist = KERNEL_DISTS[name]
        if seed is not None:
            dist = dataclasses.replace(dist, seed=seed)
        for n, streams in ((1, [4, 0, 9]), (700, [4, 0, 9, 2**32 + 5]),
                           (1000, range(rp._CHUNK_UNIFORMS // 1000 + 1))):
            got = dist.draw_table(streams, n)
            want = np.stack([reference_draws(dist, s, n) for s in streams], axis=1)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_seeds_past_2_63_keep_every_bit(self):
        # both key words are uint64: seeds that differ in their low bits, and
        # the largest seed, key distinct streams
        tops = [rp.stretch_or_rotate(seed=s).draw_table(range(64), 64)
                for s in (0, 2**63, 2**63 + 1, 2**64 - 1)]
        assert all(not np.array_equal(a, b) for a, b in itertools.combinations(tops, 2))

    def test_kernel_builds_one_philox(self, monkeypatch):
        built = []
        real = np.random.Philox
        monkeypatch.setattr(np.random, "Philox", lambda *a, **k: built.append(1) or real(*a, **k))
        rp._batched_lognorms(rp.stretch_or_rotate(seed=3), 40, range(300), (8, 40))
        assert len(built) == 1

    def test_support_index_dtype(self):
        for dist in (rp.stretch_or_rotate(), rp.single_matrix(np.eye(3)),
                     rp.two_rotations(0.7, 1.3), rp.rotated_stretch_pair()):
            assert dist.draw_table((0,), 4).dtype == np.uint8
        wide = KERNEL_DISTS["support-300"].draw_table((0,), 5000)
        assert wide.dtype == np.uint16
        assert wide.max() > 255

    def test_factor_stack_is_lanes_last(self):
        for dist in KERNEL_DISTS.values():
            stack = dist.factors(dist.draw_table((1,), 9)[:, 0])
            assert stack.shape == (9, dist.dim, dist.dim)
            assert stack.transpose(1, 2, 0).flags.c_contiguous

    def test_kernel_binds_n(self):
        # work counters bind the product length by name
        dist = rp.stretch_or_rotate()
        args = inspect.signature(rp._batched_lognorms).bind(dist, n=8, streams=[0])
        assert args.arguments["n"] == 8

    def test_kernel_holds_draws_not_factors(self):
        # 1000 streams of 512 steps: the draws are 0.5 MiB of uint8, where an
        # (n, d, d, T) float64 factor array would be 16 MiB
        dist = rp.stretch_or_rotate(seed=11)
        rp._batched_lognorms(dist, 8, range(4))
        tracemalloc.start()
        try:
            rp._batched_lognorms(dist, 512, range(1000), (64, 512))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20


def _thresholds(k: int, zeros: bool) -> np.ndarray:
    """The ``k - 1`` inverse-CDF thresholds ``cum[:-1]`` of a ``k``-matrix
    support, as ``draw_table`` searches them; with ``zeros``, the first,
    middle and last probabilities are 0, so the table has ties (and a
    threshold at 0.0 and one at the rounded total)."""
    probs = np.random.default_rng(k).uniform(0.5, 1.5, k)
    if zeros:
        probs[[0, k // 2, k - 1]] = 0.0
    return np.cumsum(probs / probs.sum())[:-1]


class TestBisectRight:
    """The support index is the count ``#{i : thresholds[i] <= u}`` that
    ``np.searchsorted(thresholds, u, side="right")`` gives, exactly."""

    @pytest.mark.parametrize("k", [*range(1, 41), 255, 256, 257, 4096])
    def test_equals_searchsorted(self, k):
        tables = [_thresholds(k, False)] + ([_thresholds(k, True)] if k >= 4 else [])
        for th in tables:
            # every threshold, the float just below it, both ends of [0, 1),
            # and a random (16, 64) chunk
            u = np.concatenate([th, np.nextafter(th, -np.inf), [0.0, np.nextafter(1.0, 0.0)],
                                np.random.default_rng(k).random(1024)]).reshape(-1, 1)
            got = rp._bisect_right(th, u)
            assert got.dtype == np.intp and got.shape == u.shape
            assert np.array_equal(got, np.searchsorted(th, u, side="right"))
            chunk = u[-1024:].reshape(16, 64)
            assert np.array_equal(rp._bisect_right(th, chunk),
                                  np.searchsorted(th, chunk, side="right"))

    def test_ties_count_every_equal_threshold(self):
        th = np.array([0.0, 0.0, 0.25, 0.5, 0.5, 0.5, 1.0])
        u = np.array([0.0, 0.1, 0.25, np.nextafter(0.5, 0.0), 0.5, 0.75, 1.0])
        assert rp._bisect_right(th, u).tolist() == [2, 2, 3, 3, 6, 6, 7]

    def test_draw_table_on_4096_matrices_is_the_reference(self):
        # uint16 indices over a support with zero-probability matrices first,
        # in the middle and last, against a new Philox and searchsorted per stream
        rng = np.random.default_rng(27)
        probs = rng.uniform(0.5, 1.5, 4096)
        probs[[0, 2048, 4095]] = 0.0
        probs /= probs.sum()
        mats = 1.0 + rng.uniform(0.0, 1.0, (4096, 1, 1))
        dist = rp.MatrixDistribution(dim=1, seed=27, support=tuple(zip(mats, probs)))
        streams, n = [3, 0, 2**40 + 1, 11], 5000
        got = dist.draw_table(streams, n)
        want = np.stack([reference_draws(dist, s, n) for s in streams], axis=1)
        assert got.dtype == np.uint16 and got.max() > 4000
        assert np.array_equal(got, want)
        assert not np.isin(got, [0, 2048]).any()


class TestTopExponent:
    def test_single_matrix_exact(self):
        dist = rp.single_matrix(np.diag([2.0, 0.5]), seed=1)
        assert abs(lognorm(dist, 100, 0) - 100 * np.log(2.0)) <= 1e-10
        est, stderr = mc_exponent(dist, 64, 4)
        assert abs(est - np.log(2.0)) <= 1e-12
        assert stderr == 0.0

    def test_rotations_give_zero(self):
        est, _ = mc_exponent(rp.two_rotations(0.7, 1.3, seed=2), 1000, 8)
        assert abs(est) <= 1e-10
        est, _ = mc_exponent(rp.uniform_rotation(seed=5), 500, 8)
        assert abs(est) <= 1e-10

    def test_isometries_unbiased_at_short_scale(self):
        est, _ = mc_exponent(rp.two_rotations(0.7, 1.3, seed=3), 8, 400)
        assert abs(est) <= 1e-15

    def test_pinned_positive_exponent(self, fur):
        est, stderr = mc_exponent(fur, 1000, 400)
        assert abs(est - PIN_FUR_EST[0]) <= 1e-9
        assert abs(stderr - PIN_FUR_EST[1]) <= 1e-12
        assert est > 5 * stderr

    def test_subadditive_in_expectation(self, fur):
        n = m = 50
        est_n, se_n = mc_exponent(fur, n, 300)
        est_2n, se_2n = mc_exponent(fur, n + m, 300)
        combined = 3.0 * (n * se_n + m * se_n + (n + m) * se_2n)
        assert (n + m) * est_2n <= n * est_n + m * est_n + combined

    def test_trials_guard(self):
        # one trial has no stderr; the config refuses it before any draw
        with pytest.raises(ConfigError, match="random.trials"):
            parse_config("random.dist = stretch_or_rotate\nrandom.trials = 1\n")

    def test_rate_report_needs_two_trials(self):
        # the API refuses one trial too, instead of reporting nan stderrs
        with pytest.raises(ValidationError, match="at least 2 trials"):
            rp.rate_report(rp.stretch_or_rotate(), (8, 16, 32), 1)

    def test_degenerate_draws_refused(self, monkeypatch):
        dist = rp.two_rotations(0.7, 1.3, seed=2)
        monkeypatch.setattr(
            rp.MatrixDistribution, "factors",
            lambda self, draws: np.zeros((len(draws), 2, 2)),
        )
        with pytest.raises(NumericalRefusal, match="step 1"):
            lognorm(dist, 4, 0)


class TestLargeDeviations:
    def test_deterministic_distribution_zero(self):
        dist = rp.single_matrix(np.diag([2.0, 0.5]), seed=3)
        report = rp.rate_report(dist, (25, 50), 100, deltas=(0.01,), ld_scales=(50,))
        assert report.ld_rows == ((50, 0.01, 0.0),)

    def test_huge_delta_zero(self, sor):
        report = rp.rate_report(sor, (25, 50), 200, deltas=(50.0,), ld_scales=(50,))
        assert report.ld_rows == ((50, 50.0, 0.0),)

    def test_pinned_decline(self, sor):
        # the LD rows center on the Monte Carlo exponent at the largest LD scale
        lam_ref, _ = mc_exponent(sor, 400, 2000)
        report = rp.rate_report(
            sor, (200, 400), 2000, deltas=(0.2 * lam_ref,), ld_scales=(50, 400)
        )
        (n50, _, p50), (n400, _, p400) = report.ld_rows
        assert (n50, n400) == (50, 400)
        assert abs(p50 - PIN_SOR_LD[0]) <= 1e-12
        assert abs(p400 - PIN_SOR_LD[1]) <= 1e-12
        assert p400 < p50


class TestConvergenceDichotomy:
    def test_single_diagonal_degenerate_exponential(self):
        dist = rp.single_matrix(np.diag([2.0, 0.5]), seed=5)
        report = rp.rate_report(dist, tuple(2**k for k in range(3, 9)), trials=16)
        assert report.verdict.classification == "exponential"
        assert np.allclose([est for _, est, _, _ in report.rows], np.log(2.0), atol=1e-12)

    def test_planted_noisy_exponential_series(self):
        rng = np.random.default_rng(0)
        scales = tuple(2**k for k in range(3, 10))
        vals = tuple(0.5 + np.exp(-0.4 * n) + 1e-6 * rng.standard_normal()
                     for n in scales)
        series = rates.RateSeries(j=1, scales=scales, values=vals)
        v = rates.dichotomy(series, c1=0.05, l0=8, noise_floor=3e-5)
        assert v.classification == "exponential"

    def test_contracting_example_classified_exponential(self, sor):
        verdict = rp.rate_report(sor, tuple(2**k for k in range(3, 10)), trials=2000).verdict
        assert verdict.classification == "exponential"
        assert verdict.noise_floor > 0.0


class TestRateReport:
    def test_report_bundle(self, sor):
        report = rp.rate_report(
            sor, (8, 16, 32, 64), trials=50, deltas=(0.2,), ld_scales=(16, 64)
        )
        assert len(report.rows) == 4
        assert len(report.ld_rows) == 2
        assert report.verdict is not None


class TestExactLimit:
    """Upper-triangular support ``[[a_i, b_i], [0, c_i]]``: the diagonal of a
    product is the product of the diagonals, so
    ``lambda_1 = max(sum p_i log|a_i|, sum p_i log|c_i|)`` exactly, and the
    off-diagonal entries only add a ``C/n`` bias."""

    SUPPORT = ((0.5, [[2.0, 1.0], [0.0, 0.5]]),
               (0.25, [[0.8, -0.5], [0.0, 1.5]]),
               (0.25, [[1.2, 0.3], [0.0, 0.7]]))
    # E log||Y_n ... Y_1|| - sum log|a_i| over the same draws: 0.1592 and
    # 0.1591 at n = 64..512 over 4000 streams each at seeds 3 and 4; the
    # tolerance allows twice that
    BIAS_C = 2.0 * 0.16

    def lam1(self) -> float:
        lam_a = sum(p * np.log(abs(m[0][0])) for p, m in self.SUPPORT)
        lam_c = sum(p * np.log(abs(m[1][1])) for p, m in self.SUPPORT)
        return max(lam_a, lam_c)

    def report_rows(self, tmp_path):
        support = tmp_path / "support.txt"
        support.write_text("\n".join(
            f"{p}\n" + "\n".join(" ".join(map(str, row)) for row in m) + "\n"
            for p, m in self.SUPPORT))
        cfg = parse_config(f"random.dist = file\nrandom.support_file = {support}\n"
                           "numerics.seed = 5\n")
        return rp.rate_report(cfg.distribution(), (64, 128, 256, 512), 1000).rows

    def test_top_rung_meets_the_exact_exponent(self, tmp_path):
        n, est, stderr, _ = self.report_rows(tmp_path)[-1]
        assert n == 512
        assert abs(est - self.lam1()) <= 4.0 * stderr + self.BIAS_C / n

    def test_richardson_proxy_meets_the_exact_exponent(self, tmp_path):
        # 2 lambda_512 - lambda_256 cancels the C/n bias; its stderr is at
        # most 2 se_512 + se_256, the rungs sharing their streams
        rows = self.report_rows(tmp_path)
        proxy = rates.RateSeries(j=1, scales=tuple(n for n, _, _, _ in rows),
                                 values=tuple(est for _, est, _, _ in rows)).proxy_limit
        (_, _, se_low, _), (_, _, se_top, _) = rows[-2:]
        assert abs(proxy - self.lam1()) <= 4.0 * (2.0 * se_top + se_low)
