from math import exp

import numpy as np
import pytest
from click.testing import CliRunner

from cocyclelab import rates
from cocyclelab.cli import main
from cocyclelab.cocycle import (
    DiagonalExpFamily,
    SchrodingerFamily,
    ShiftBase,
    DEFAULT_OMEGA_2D,
)
from cocyclelab.errors import NumericalRefusal, ValidationError
from tests.families import constant_family

SCALES = tuple(2**k for k in range(2, 12))

# frozen after the first run at grid 1024
SCHRODINGER_EDGE_GAMMA = 1.002205  # window [8.2, 9.2], n = 1024


def planted_series(
    scales, limit: float, coeff: float, law: str, rate: float = 0.0
) -> rates.RateSeries:
    """Synthetic series ``limit + coeff/n`` or ``limit + coeff*exp(-rate*n)``
    for calibrating the classifiers."""
    scales = tuple(int(s) for s in scales)
    if law == "one_over_n":
        vals = tuple(limit + coeff / n for n in scales)
    elif law == "exponential":
        vals = tuple(limit + coeff * exp(-rate * n) for n in scales)
    else:
        assert law == "constant", law
        vals = tuple(float(limit) for _ in scales)
    return rates.RateSeries(j=1, scales=scales, values=vals)


class TestRateSeries:
    def test_ladder_must_be_complete(self):
        with pytest.raises(ValidationError):
            rates.RateSeries(j=1, scales=(4, 16), values=(0.0, 0.0))

    def test_engine_series_constant(self, golden):
        fam = constant_family(golden, np.diag([2.0, 0.5]))
        s = rates.rate_series(fam, 0.0, 1, 64, 8)
        assert np.allclose(s.values, np.log(2.0), atol=1e-13)
        assert abs(s.proxy_limit - np.log(2.0)) <= 1e-13
        s2 = rates.rate_series(fam, 0.0, 2, 64, 8)
        assert all(a >= b for a, b in zip(s.values, s2.values))

    def test_n_max_validation(self, golden):
        fam = constant_family(golden, np.diag([2.0, 0.5]))
        with pytest.raises(ValidationError):
            rates.rate_series(fam, 0.0, 1, 48, 8)

    @pytest.mark.parametrize("j", [0, 3])
    def test_exponent_index_out_of_range(self, golden, j):
        # j = 0 would index lambda_d from the end, j = 3 past it
        fam = constant_family(golden, np.diag([2.0, 0.5]), param_values=np.array([0.0, 1.0]))
        with pytest.raises(ValidationError, match="exponent index"):
            rates.rate_series(fam, 0.0, j, 64, 8)
        with pytest.raises(ValidationError, match="exponent index"):
            rates.holder_estimate(fam, j, (0.0, 1.0), n=16, m=16)


class TestRichardson:
    def test_exact_on_one_over_n(self):
        s = planted_series(SCALES, limit=1.5, coeff=-3.7, law="one_over_n")
        assert abs(s.proxy_limit - 1.5) <= 1e-12

    def test_exact_on_constant(self):
        s = planted_series(SCALES, limit=0.25, coeff=0.0, law="constant")
        assert s.proxy_limit == 0.25


class TestCOverN:
    def test_planted_recovers_coefficient(self):
        s = planted_series(SCALES, limit=2.0, coeff=1.0, law="one_over_n")
        c_est, table = rates.check_c_over_n(s)
        assert abs(c_est - 1.0) <= 1e-12
        assert all(abs(w - 1.0) <= 1e-9 for n, w in table if n <= SCALES[-1] // 4)

    def test_constant_family_zero(self, golden):
        fam = constant_family(golden, np.diag([2.0, 0.5]))
        s = rates.rate_series(fam, 0.0, 1, 128, 8)
        c_est, _ = rates.check_c_over_n(s)
        assert c_est <= 1e-10


class TestRSequence:
    def test_planted_constant_rows(self):
        s = planted_series(SCALES, limit=0.0, coeff=2.5, law="one_over_n")
        rep = rates.r_sequence(s)
        assert all(abs(r - 2.5) <= 1e-9 for _, r in rep.rows)
        assert rep.bounded

    def test_constant_series_all_zero(self):
        s = planted_series(SCALES, limit=1.0, coeff=0.0, law="constant")
        rep = rates.r_sequence(s)
        assert all(r == 0.0 for _, r in rep.rows)
        assert rep.bounded


class TestDichotomy:
    def test_planted_one_over_n_full_cascade(self):
        s = planted_series(SCALES, limit=1.5, coeff=1.0, law="one_over_n")
        v = rates.dichotomy(s, c1=0.05, l0=16)
        assert v.classification == "one_over_n"
        assert v.trigger_scale is not None and v.trigger_scale >= 16
        assert v.c1_est is None
        # triggered at l0, then decaying faster than the halving cascade allows
        s = planted_series(SCALES, limit=1.5, coeff=10.0, law="exponential", rate=0.1)
        v = rates.dichotomy(s, c1=0.05, l0=16)
        assert (v.classification, v.trigger_scale) == ("inconclusive", 16)

    def test_planted_exponential(self):
        s = planted_series(SCALES, limit=0.7, coeff=1.0, law="exponential", rate=0.5)
        v = rates.dichotomy(s, c1=0.05, l0=16)
        assert v.classification == "exponential"
        assert v.trigger_scale is None

    def test_constant_degenerate_exponential(self):
        s = planted_series(SCALES, limit=0.3, coeff=0.0, law="constant")
        v = rates.dichotomy(s, c1=0.05, l0=16)
        assert v.classification == "exponential"

    def test_short_untriggered_ladder_is_inconclusive(self):
        # 1/n data whose ladder ends before the trigger threshold drops
        # below the deviations: the safety valve, not a misclassification
        s = planted_series((4, 8, 16, 32, 64), limit=1.5, coeff=1.0,
                                 law="one_over_n")
        v = rates.dichotomy(s, c1=0.05, l0=16)
        assert v.classification == "inconclusive"

    def test_noise_floor_admits_unresolved_tail(self):
        rng = np.random.default_rng(1)
        noisy = tuple(0.9 + 1e-5 * rng.standard_normal() for _ in SCALES)
        s = rates.RateSeries(j=1, scales=SCALES, values=noisy)
        v = rates.dichotomy(s, c1=0.05, l0=16, noise_floor=1e-4)
        assert v.classification == "exponential"

    def test_decay_rate_ignores_second_differences_below_the_floor(self):
        # an exact-zero exponent whose estimates are rounding noise: every
        # second difference is about 1e-17, under the 1e-12 working floor
        noise = (3.5e-18, -1.4e-17, 8.0e-18, 1.1e-17, -6.0e-18, 9.0e-18, -1.2e-17,
                 4.0e-18, 1.3e-17, -2.0e-18)
        s = rates.RateSeries(j=1, scales=SCALES, values=noise)
        v = rates.dichotomy(s, c1=0.05, l0=16)
        assert all(0.0 < sd < 1e-15 for _, sd, _ in v.evidence)
        assert v.c1_est is None
        assert v.classification == "exponential"

    def test_decay_rate_fits_resolved_second_differences(self):
        s = planted_series(SCALES, limit=0.7, coeff=1.0, law="exponential", rate=0.05)
        v = rates.dichotomy(s, c1=0.05, l0=16)
        resolved = [(n, sd) for n, sd, _ in v.evidence if sd > v.noise_floor]
        assert 2 <= len(resolved) < len(v.evidence)
        x = np.array([n for n, _ in resolved], dtype=np.float64)
        assert v.c1_est == -float(np.polyfit(x, np.log([sd for _, sd in resolved]), 1)[0])

    def test_ladder_length_guard(self):
        s = planted_series((4, 8, 16, 32), limit=0.0, coeff=1.0, law="one_over_n")
        with pytest.raises(ValidationError):
            rates.dichotomy(s, c1=0.05, l0=16)


class TestGapCheck:
    def test_constant_gaps(self, golden):
        fam = constant_family(golden, np.diag([2.0, 1.0, 0.5]))
        spec = fam.finite_scale_exponents([0.0, 0.5, 1.0], 16, 8)
        assert np.allclose(spec[:, :-1] - spec[:, 1:], np.log(2.0), atol=1e-12)
        est = rates.holder_estimate(fam, 1, (0.0, 1.0), n=16, m=8, kappa=0.5)
        assert abs(est.kappa_min - np.log(2.0)) <= 1e-12

    def test_kappa_above_gap_fails(self, golden):
        fam = constant_family(golden, np.diag([2.0, 1.0, 0.5]))
        with pytest.raises(NumericalRefusal, match="gap check failed on the window: "
                           "min gap 0.693147 <= kappa 1.0"):
            rates.holder_estimate(fam, 1, (0.0, 1.0), n=16, m=8, kappa=1.0)

    def test_schrodinger_gap_exceeds_two(self, schrodinger3):
        spec = schrodinger3.finite_scale_exponents(0.0, 1024, 256)
        assert spec[0] - spec[1] > 2.0


class TestHolderEstimate:
    def test_linear_exponent_slope_one(self, golden):
        for c in (1.0, 3.0):
            fam = DiagonalExpFamily(
                base=golden, dim=2, x_amp=np.zeros(2),
                e_amp=np.array([c, -c]), param_values=np.array([0.1, 1.1]),
            )
            est = rates.holder_estimate(
                fam, 1, (0.1, 1.1), n=16, m=16, pair_budget=24, kappa=0.05, seed=3
            )
            assert abs(est.gamma_est - 1.0) <= 0.01
            assert est.pairs_excluded == 0
            assert est.residual <= 1e-6

    def test_parameter_free_family_zero_variation(self, golden):
        fam = constant_family(golden, np.diag([2.0, 0.5]), param_values=np.array([0.0, 1.0]))
        est = rates.holder_estimate(
            fam, 1, (0.0, 1.0), n=16, m=16, pair_budget=12, kappa=0.1, seed=1
        )
        assert est.zero_variation
        assert est.pairs_used < 2
        assert est.pairs_excluded >= 10

    def test_gap_refusal(self, golden):
        fam = constant_family(golden, np.diag([2.0, 0.5]), param_values=np.array([0.0, 1.0]))
        with pytest.raises(NumericalRefusal, match="gap"):
            rates.holder_estimate(
                fam, 1, (0.0, 1.0), n=16, m=16, pair_budget=12, kappa=5.0, seed=1
            )

    def test_gap_refusal_prints_zero_gap_unsigned(self, golden):
        # equal exponents give a gap of +0; "-0" would read as a sign
        fam = constant_family(golden, np.eye(2), param_values=np.array([0.0, 1.0]))
        with pytest.raises(NumericalRefusal) as exc:
            rates.holder_estimate(fam, 1, (0.0, 1.0), n=16, m=16)
        assert str(exc.value) == "gap check failed on the window: min gap 0 <= kappa 0.05"

    def test_schrodinger_spectral_edge_window(self):
        fam = SchrodingerFamily(
            base=ShiftBase(omega=(0.6180339887498949,)), dim=2, coupling=3.0,
            param_values=np.array([8.2, 9.2]),
        )
        est = rates.holder_estimate(
            fam, 1, (8.2, 9.2), n=256, m=256, pair_budget=12, kappa=1.0, seed=0
        )
        assert est.gamma_est > 0.5
        assert est.pairs_excluded == 0

    def test_flat_exponent_window_mostly_excluded(self, schrodinger3):
        # inside the strong-coupling spectrum the exponent is constant to
        # grid resolution: almost every pair falls below the noise cutoff
        fam = SchrodingerFamily(
            base=schrodinger3.base, dim=2, coupling=3.0,
            param_values=np.array([-0.5, 0.5]),
        )
        est = rates.holder_estimate(
            fam, 1, (-0.5, 0.5), n=512, m=512, pair_budget=12, kappa=0.05, seed=0
        )
        assert est.pairs_excluded >= 8
        assert est.zero_variation

    def test_two_torus_emits_stretched_fit(self):
        base = ShiftBase(omega=DEFAULT_OMEGA_2D)
        fam = DiagonalExpFamily(
            base=base, dim=2, x_amp=np.zeros(2), e_amp=np.array([1.0, -1.0]),
            param_values=np.array([0.1, 1.1]),
        )
        est = rates.holder_estimate(
            fam, 1, (0.1, 1.1), n=8, m=8, pair_budget=12, kappa=0.05, seed=2
        )
        assert est.stretched_sigma is not None
        assert 0.0 < est.stretched_sigma < 1.0


def _csv_rows(path) -> list[dict[str, str]]:
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]


class TestExactLimitOnTheSpectrum:
    """The almost Mathieu operator ``v = 2 lambda cos 2 pi t`` with ``lambda
    > 1`` has ``L(E) = ln lambda`` at every ``E`` of its spectrum
    (Bourgain-Jitomirskaya, J. Stat. Phys. 108, 2002).  ``E = 0`` is in the
    spectrum for every irrational frequency: the spectrum is symmetric, so
    the integrated density of states there is 1/2, which is not a gap label
    ``k omega mod 1``.  So the Schroedinger config at coupling 3 and ``E =
    0`` has the exact limit ln 3, and ``rates`` and ``dichotomy`` are checked
    against it rather than against the Richardson proxy."""

    def test_rates_and_dichotomy_against_ln3(self, tmp_path):
        cfg = tmp_path / "schrodinger_e0.cfg"
        cfg.write_text(
            "cocycle.kind = schrodinger\ncocycle.coupling = 3.0\n"
            "param.E_min = 0.0\nparam.E_count = 1\n"
            "numerics.grid = 4096\nnumerics.n_max = 16384\n"
        )
        out = tmp_path / "o"
        for sub in ("rates", "dichotomy"):
            res = CliRunner().invoke(main, [sub, "--config", str(cfg), "--out", str(out)])
            assert res.exit_code == 0, (sub, res.output)
        ln3 = float(np.log(3.0))
        series = {int(r["n"]): float(r["lambda"]) for r in _csv_rows(out / "rates_series.csv")}
        assert list(series) == [2**k for k in range(2, 15)]
        # the C/n law: n (lambda_n - ln 3) neither decays nor grows
        c = {n: n * (lam - ln3) for n, lam in series.items()}
        assert all(0.36 <= v <= 0.38 for v in c.values()), c
        # R(n) = 2n |lambda_2n - lambda_n| is C again
        r = [float(row["R"]) for row in _csv_rows(out / "rates_r.csv")]
        assert all(0.36 <= v <= 0.38 for v in r), r
        summary = _csv_rows(out / "rates_summary.csv")[0]
        proxy_defect = float(summary["proxy_limit"]) - ln3
        assert abs(proxy_defect) <= 1e-6
        verdict = _csv_rows(out / "dichotomy_verdict.csv")[0]
        assert verdict["classification"] == "one_over_n"
        # a 1/n verdict reports no exponential rate
        assert verdict["c1_est"] == ""
        print(f"E = 0, coupling 3, grid 4096: C = {min(c.values()):.4f}..{max(c.values()):.4f} "
              f"for n = 4..16384, C_est against the proxy {float(summary['C_est']):.4f}, "
              f"proxy - ln 3 = {proxy_defect:.2e}, dichotomy {verdict['classification']} "
              f"from n = {verdict['trigger_scale']}")
