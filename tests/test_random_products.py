import numpy as np
import pytest

from cocyclelab import random_products as rp
from cocyclelab import rates
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
            rp.MatrixDistribution, "sample_sequence",
            lambda self, stream_id, n: np.zeros((n, 2, 2)),
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
