import numpy as np
import pytest

from cocyclelab import ldt
from cocyclelab import random_products as rp
from cocyclelab.cocycle import DiagonalExpFamily, grid_phasors
from cocyclelab.errors import ValidationError
from cocyclelab.util import pairwise_mean
from tests.families import constant_family

# frozen after the first run (grid fractions are exact multiples of 1/M)
SCHRODINGER_AI_K1 = (0.0031934131719215664, 0.0035516532406876305)
SCHRODINGER_AI_K8 = (0.0056675102739365268, 0.028413225925501044)


@pytest.fixture(scope="module")
def const2(golden):
    return constant_family(golden, np.diag([2.0, 0.5]))


@pytest.fixture(scope="module")
def diag_exp(golden):
    return DiagonalExpFamily(
        base=golden, dim=2, x_amp=np.array([2.0, -2.0]), e_amp=np.zeros(2)
    )


def measures(fam, n: int, p: int, deltas, m: int) -> list[float]:
    """Deviation measures of the ``ldt`` reports at the single scale ``n``."""
    prof, _, _ = ldt.reports(fam, 0.0, (n,), deltas, m, p=p)
    return [meas for _, _, meas in prof]


def invariance(fam, n: int, k: int, m: int) -> ldt.AlmostInvarianceReport:
    return ldt.reports(fam, 0.0, (n,), (), m, k=k)[1]


def audit(fam, ladder, m: int) -> ldt.MonotonicityReport:
    return ldt.reports(fam, 0.0, ladder[-1:], (), m, ladder=ladder)[2]


class TestDeviationMeasure:
    def test_constant_family_is_zero(self, const2):
        assert measures(const2, 16, 1, (1e-6, 0.1, 3.0), 64) == [0.0] * 3

    def test_delta_beyond_total_oscillation(self, schrodinger3):
        vals = schrodinger3.orbit_lognorms(0.0, grid_phasors(128), 16)[0] / 16
        big = float(np.max(vals) - np.min(vals)) + 0.01
        assert measures(schrodinger3, 16, 1, (big,), 128) == [0.0]

    def test_monotone_in_delta(self, schrodinger3):
        m = measures(schrodinger3, 16, 1, (0.02, 0.05, 0.1, 0.2), 256)
        assert all(b <= a for a, b in zip(m, m[1:]))

    def test_top_order_on_unit_determinant_is_zero(self, schrodinger3):
        # p = d profile is (1/n) log|det| = 0 identically
        assert measures(schrodinger3, 32, 2, (1e-9, 0.1), 64) == [0.0] * 2

    def test_self_centering(self, golden):
        # e_amp = (1, 1) multiplies every factor by exp(E), which shifts every
        # log-norm by n E; centering on the grid mean removes the shift
        fam = DiagonalExpFamily(
            base=golden, dim=2, x_amp=np.array([2.0, -2.0]), e_amp=np.ones(2),
            param_values=np.array([0.0, 0.7]),
        )
        deltas = (0.05, 0.1, 0.2, 0.4)
        rows = [ldt.reports(fam, E, (2,), deltas, 256)[0] for E in (0.0, 0.7)]
        assert rows[0] == rows[1]
        assert all(0.0 < meas < 1.0 for _, _, meas in rows[0])

    def test_validation(self, const2):
        with pytest.raises(ValidationError):
            measures(const2, 16, 1, (0.0,), 64)
        with pytest.raises(ValidationError):
            measures(const2, 16, 5, (0.1,), 64)


class TestDeviationProfile:
    def test_rows_match_pointwise_op(self, schrodinger3):
        prof = ldt.reports(schrodinger3, 0.0, (16, 32), (0.05, 0.1), 128)[0]
        zeta = grid_phasors(128)
        for n, delta, measure in prof:
            # reference: a separate orbit pass at this scale, centered here
            vals = schrodinger3.orbit_lognorms(0.0, zeta, n)[0] / n
            direct = np.count_nonzero(np.abs(vals - pairwise_mean(vals)) > delta) / vals.size
            assert measure == direct


class TestFitDecay:
    def test_recovers_planted_exponential(self):
        prof = [(n, 0.1, float(np.exp(-0.05 * n))) for n in (16, 32, 64, 128, 256, 512)]
        fit = ldt.fit_decay(prof, 0.1)
        assert not fit.degenerate
        assert abs(fit.c - 0.05) <= 1e-6
        assert abs(fit.C) <= 1e-6

    def test_recovers_planted_stretched(self):
        prof = [(n, 0.1, float(np.exp(-(n**0.6)))) for n in (16, 32, 64, 128, 256)]
        fit = ldt.fit_decay(prof, 0.1, model="stretched")
        assert abs(fit.tau - 0.6) <= 1e-9

    def test_picks_the_rows_of_its_delta(self):
        single, both = [], []
        for n in (16, 32, 64, 128, 256):
            single.append((n, 0.1, float(np.exp(-0.03 * n))))
            both += [(n, 0.05, float(np.exp(-0.01 * n))), single[-1]]
        for model in ("exp_poly", "stretched"):
            assert ldt.fit_decay(both, 0.1, model) == ldt.fit_decay(single, 0.1, model)
        assert ldt.fit_decay(both, 0.05) != ldt.fit_decay(single, 0.1)

    def test_all_zero_rows_degenerate(self):
        prof = [(n, 0.1, 0.0) for n in (16, 32, 64, 128)]
        assert ldt.fit_decay(prof, 0.1).degenerate

    def test_too_few_rows_degenerate(self):
        prof = [(n, 0.1, 0.5) for n in (16, 32, 64)]
        assert ldt.fit_decay(prof, 0.1).degenerate

    def test_unknown_model(self):
        with pytest.raises(ValidationError):
            ldt.fit_decay([], 0.1, model="cubic")


class TestAlmostInvariance:
    def test_constant_family_zero_gap(self, const2):
        rep = invariance(const2, 64, 1, 32)
        assert rep.sup_gap == 0.0
        assert rep.ok

    def test_iteration_bound(self, schrodinger3):
        rep1 = invariance(schrodinger3, 256, 1, 128)
        rep2 = invariance(schrodinger3, 256, 2, 128)
        assert rep2.sup_gap <= 2.0 * rep1.bound + 1e-10
        assert rep1.ok and rep2.ok

    def test_pinned_values(self, schrodinger3):
        rep = invariance(schrodinger3, 1024, 1, 1024)
        assert abs(rep.sup_gap - SCHRODINGER_AI_K1[0]) <= 1e-10
        assert abs(rep.bound - SCHRODINGER_AI_K1[1]) <= 1e-10
        assert rep.ok

    def test_validation(self, const2):
        with pytest.raises(ValidationError):
            invariance(const2, 64, 0, 32)


class TestMonotonicityAudit:
    def test_constant_equalities(self, const2):
        rep = audit(const2, (16, 32, 64), 16)
        assert rep.violations == ()
        assert np.allclose(rep.values, np.log(2.0), atol=1e-13)

    def test_diagonal_exp_strictly_monotone(self, diag_exp):
        rep = audit(diag_exp, tuple(2**k for k in range(4, 10)), 256)
        assert rep.violations == ()
        assert all(b < a for a, b in zip(rep.values, rep.values[1:]))

    def test_non_dyadic_rejected(self, const2):
        with pytest.raises(ValidationError):
            audit(const2, (16, 48), 16)


class TestOnePass:
    def test_reports_equal_one_pass_per_report(self, schrodinger3):
        # the shared pass moves no bit: each report equals its own pass, and
        # the k-shift is the exact rotation w_k of the start phasors
        scales, ladder, deltas, m = (16, 24, 64), (16, 32, 64), (0.05, 0.1), 128
        z = grid_phasors(m)
        here = schrodinger3.orbit_lognorms(0.0, z, 64)[0]
        for k in (3, 99999):
            prof, inv, mono = ldt.reports(schrodinger3, 0.0, scales, deltas, m, k=k,
                                          ladder=ladder)
            assert prof == ldt.deviation_profile(
                schrodinger3.orbit_lognorms(0.0, z, 64, checkpoints=scales), scales, deltas)
            w_k = schrodinger3.base.rotation([k])[0]
            shifted = schrodinger3.orbit_lognorms(0.0, z * w_k, 64)[0]
            assert inv == ldt.almost_invariance(
                here, shifted, 64, k, *schrodinger3.one_step_log_extremes(0.0, m))
            assert mono == ldt.monotonicity_audit(
                schrodinger3.orbit_lognorms(0.0, z, 64, checkpoints=ladder), ladder)

    def test_monotonicity_values_are_the_ladder(self, schrodinger3):
        ladder = (16, 32, 64, 128)
        mono = audit(schrodinger3, ladder, 256)
        lam1 = schrodinger3.exponent_ladder(0.0, ladder, 256, 1)
        full = schrodinger3.exponent_ladder(0.0, ladder, 256)
        assert mono.values == tuple(float(lam1[n]) for n in ladder)
        assert mono.values == tuple(float(full[n][0]) for n in ladder)

    def test_second_order_profile(self, schrodinger3):
        # p = 2 is (1/n) log|det| = 0; invariance and monotonicity keep order 1
        prof, inv, mono = ldt.reports(schrodinger3, 0.0, (32,), (1e-9,), 64, p=2,
                                      ladder=(16, 32))
        assert prof == [(32, 1e-9, 0.0)]
        assert (inv, mono) == ldt.reports(schrodinger3, 0.0, (32,), (), 64, ladder=(16, 32))[1:]


@pytest.mark.parametrize("report", [
    lambda fam: ldt.reports(fam, 0.0, (), (0.1,), 16),
    lambda fam: rp.rate_report(rp.stretch_or_rotate(), (), 4),
], ids=["ldt.reports", "rate_report"])
def test_empty_scales_refused(const2, report):
    with pytest.raises(ValidationError, match="scales must be non-empty"):
        report(const2)
