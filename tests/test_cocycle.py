import mpmath as mp
import numpy as np
import pytest
from click.testing import CliRunner

from cocyclelab import cocycle, ldt, linalg, rates
from cocyclelab.cli import main as cli_main
from cocyclelab.cocycle import (
    ConstantFamily,
    DiagonalExpFamily,
    SchrodingerFamily,
    ShiftBase,
    TrigPolyFamily,
    check_ladder,
    torus_grid,
)
from cocyclelab.errors import NumericalRefusal, ValidationError

LN2 = np.log(2.0)


def mp_norm_2x2(m):
    """Extended-precision spectral norm of a 2x2 mpmath matrix."""
    fro2 = sum(m[i, j] ** 2 for i in range(2) for j in range(2))
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    gap = mp.sqrt(max(fro2 * fro2 - 4 * det * det, mp.mpf(0)))
    return mp.sqrt((fro2 + gap) / 2)


def mp_schrodinger_product(fam: SchrodingerFamily, x: float, E: float, n: int):
    """Assembled product in mpmath, on the same float orbit points the
    engine visits."""
    omega = fam.base.omega[0]
    full = None
    for j in range(1, n + 1):
        xj = float(np.mod(x + j * omega, 1.0))
        v = mp.mpf(fam.coupling) * 2 * mp.cos(2 * mp.pi * mp.mpf(xj))
        m = mp.matrix([[v - E, -1], [1, 0]])
        full = m if full is None else m * full
    return full


class TestShiftBase:
    def test_rejects_rational(self):
        with pytest.raises(ValidationError, match="rational"):
            ShiftBase(omega=(0.5,))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            ShiftBase(omega=(1.5,))
        with pytest.raises(ValidationError):
            ShiftBase(omega=(cocycle.GOLDEN_MEAN,), dio_exponent=1.0)

    def test_orbit_points_mod_one(self, golden):
        xs = np.array([[0.9]])
        pts = golden.orbit_points(xs, 3)
        assert 0.0 <= pts[0, 0] < 1.0
        assert np.isclose(pts[0, 0], np.mod(0.9 + 3 * golden.omega[0], 1.0))

    def test_two_torus_default(self):
        base = ShiftBase(omega=cocycle.DEFAULT_OMEGA_2D)
        assert base.nu == 2
        grid = torus_grid(2, 8)
        assert grid.shape == (64, 2)


def evaluate(fam, x, E: float) -> np.ndarray:
    """The cocycle matrix at one base point."""
    return fam.evaluate_batch(cocycle.as_points(x, fam.base.nu), E)[0]


class TestEvaluate:
    def test_constant_everywhere(self, golden):
        m = np.diag([2.0, 0.5])
        fam = ConstantFamily(base=golden, dim=2, matrix=m)
        for x in (0.0, 0.3, 0.99):
            for E in (0.0,):
                assert np.allclose(evaluate(fam, x, E), m)

    def test_schrodinger_closed_form(self, golden):
        fam = SchrodingerFamily(base=golden, dim=2, coupling=1.0)
        got = evaluate(fam, 0.0, 0.0)
        assert np.allclose(got, [[2.0, -1.0], [1.0, 0.0]])
        got = evaluate(fam, 0.25, 0.7)
        v = 2.0 * np.cos(2 * np.pi * 0.25)
        assert np.allclose(got, [[v - 0.7, -1.0], [1.0, 0.0]])

    def test_trig_poly_matches_naive_fourier(self, golden):
        rng = np.random.default_rng(17)
        deg = 3
        cos_c = rng.standard_normal((2, 2, deg + 1)) * 0.2 + np.eye(2)[:, :, None]
        sin_c = rng.standard_normal((2, 2, deg)) * 0.2
        fam = TrigPolyFamily(base=golden, dim=2, cos_coeffs=cos_c, sin_coeffs=sin_c)
        x, E = 0.37, 0.0
        got = evaluate(fam, x, E)
        want = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(deg + 1):
                    want[i, j] += cos_c[i, j, k] * np.cos(2 * np.pi * k * x)
                for k in range(1, deg + 1):
                    want[i, j] += sin_c[i, j, k - 1] * np.sin(2 * np.pi * k * x)
        assert np.allclose(got, want, atol=1e-12)

    def test_trig_poly_shares_harmonics_bit_for_bit(self, golden):
        # one series over the whole coefficient stack gives each entry the
        # bits of its own scalar series, zero harmonics included
        cos_c = np.array([[[2.0, 0.0, 0.3], [0.0, 0.5, 0.0]],
                          [[0.0, 0.0, 0.0], [1.5, 0.2, 0.0]]])
        sin_c = np.array([[[0.0, 0.1], [0.4, 0.0]], [[0.0, 0.0], [0.0, 0.7]]])
        fam = TrigPolyFamily(base=golden, dim=2, cos_coeffs=cos_c, sin_coeffs=sin_c)
        pts = cocycle.torus_grid(1, 64)
        got = fam.evaluate_batch(pts, 0.0)
        t = pts[:, 0]
        for i, j in np.ndindex(2, 2):
            want = cocycle._cos_sin_series(t, cos_c[i, j], sin_c[i, j])
            assert np.array_equal(got[:, i, j], want)

    @pytest.mark.parametrize("kind", ["constant", "diagonal-exp", "trig-poly", "schrodinger"])
    def test_energy_stack_is_per_energy_calls_lanes_last(self, kind):
        # lane k * B + b is energy k at point b, with the bits of the
        # one-energy call; the energy-free kinds tile their value
        base = ShiftBase(omega=cocycle.DEFAULT_OMEGA_2D)
        rng = np.random.default_rng(19)
        fam = {
            "constant": lambda: ConstantFamily(base=base, dim=3, matrix=np.diag([2.0, 1.0, 0.5])),
            "diagonal-exp": lambda: DiagonalExpFamily(
                base=base, dim=3, x_amp=np.array([1.0, 0.5, -1.5]),
                e_amp=np.array([0.3, -0.6, 0.3])),
            "trig-poly": lambda: TrigPolyFamily(
                base=base, dim=3,
                cos_coeffs=rng.standard_normal((3, 3, 3)) * 0.1 + 3.0 * np.eye(3)[:, :, None],
                sin_coeffs=rng.standard_normal((3, 3, 2)) * 0.1),
            "schrodinger": lambda: SchrodingerFamily(base=base, dim=2, coupling=3.0),
        }[kind]()
        pts = torus_grid(2, 8)
        energies = np.array([-1.5, 0.0, 0.25, 2.0])
        got = fam.evaluate_batch(pts, energies)
        d = fam.dim
        assert got.shape == (energies.size * pts.shape[0], d, d)
        assert got.transpose(1, 2, 0).flags.c_contiguous
        per_energy = [fam.evaluate_batch(pts, E) for E in energies]
        assert all(m.shape == (pts.shape[0], d, d) for m in per_energy)
        assert np.array_equal(got, np.concatenate(per_energy))
        if kind in ("constant", "trig-poly"):
            assert all(np.array_equal(m, per_energy[0]) for m in per_energy)

    def test_construction_rejects_singular_family(self, golden):
        with pytest.raises(ValidationError, match=r"numerically singular at x=\(0\.0,\), E=0\.0"):
            ConstantFamily(base=golden, dim=2, matrix=np.diag([1.0, 0.0]))


def orbit_product(fam, x, E: float, n: int) -> float:
    """Log-norm of the scale-``n`` product over the orbit of one point,
    through the shared accumulator."""
    xs = cocycle.as_points(x, fam.base.nu)
    factors = (fam.evaluate_batch(fam.base.orbit_points(xs, j), E) for j in range(1, n + 1))
    logs = linalg.scaled_product(factors, n)
    assert logs.shape == (1, 1)
    return float(logs[0, 0])


def log_singular_profile(fam, x, E: float, n: int) -> np.ndarray:
    """Per-point ``(1/n) log sigma_j(A^(n)_x)`` from compound top growth."""
    partial = [0.0] + [fam.orbit_lognorms(E, x, n, p=p)[0, 0] for p in range(1, fam.dim + 1)]
    return np.diff(partial) / n


class TestProductOrbit:
    def test_constant_diagonal_powers(self, golden):
        fam = ConstantFamily(base=golden, dim=2, matrix=np.diag([2.0, 0.5]))
        log_scale = orbit_product(fam, 0.1, 0.0, 10)
        assert abs(log_scale - 10 * LN2) <= 1e-12

    def test_single_factor_is_shifted_evaluate(self, golden):
        fam = SchrodingerFamily(base=golden, dim=2, coupling=2.0)
        x, E = 0.2, 0.3
        log_scale = fam.orbit_lognorms(E, x, 1)[0, 0]
        direct = evaluate(fam, np.mod(x + golden.omega[0], 1.0), E)
        assert abs(log_scale - np.log(np.linalg.norm(direct, 2))) <= 1e-14

    def test_extended_precision_oracle_n3(self, schrodinger3):
        mp.mp.dps = 50
        rng = np.random.default_rng(5)
        E = float(rng.uniform(-1, 1))
        x = float(rng.uniform(0, 1))
        log_scale = schrodinger3.orbit_lognorms(E, x, 3)[0, 0]
        oracle = float(mp.log(mp_norm_2x2(mp_schrodinger_product(schrodinger3, x, E, 3))))
        assert abs(log_scale - oracle) <= 1e-12 * abs(oracle)

    def test_bitwise_reproducible(self, schrodinger3):
        a = orbit_product(schrodinger3, 0.123, 0.0, 50)
        b = orbit_product(schrodinger3, 0.123, 0.0, 50)
        assert a == b
        # the orbit kernel at B = 1 is the same accumulation
        assert schrodinger3.orbit_lognorms(0.0, 0.123, 50)[0, 0] == a


class TestLogSingularProfile:
    def test_constant_diagonal(self, golden):
        fam = ConstantFamily(base=golden, dim=3, matrix=np.diag([2.0, 1.0, 0.5]))
        for n in (1, 7, 32):
            prof = log_singular_profile(fam, 0.3, 0.0, n)
            assert np.allclose(prof, [LN2, 0.0, -LN2], atol=1e-13)

    def test_ordering_non_increasing(self, golden):
        rng = np.random.default_rng(8)
        cos_c = rng.standard_normal((3, 3, 2)) * 0.1 + 2 * np.eye(3)[:, :, None]
        fam = TrigPolyFamily(
            base=golden, dim=3, cos_coeffs=cos_c,
            sin_coeffs=np.zeros((3, 3, 1)),
        )
        for x in (0.1, 0.6):
            prof = log_singular_profile(fam, x, 0.0, 24)
            assert np.all(np.diff(prof) <= 1e-10)

    def test_extended_precision_svd_oracle_n64(self, schrodinger3):
        mp.mp.dps = 100
        x, n = 0.34, 64
        prof = log_singular_profile(schrodinger3, x, 0.0, n)
        full = mp_schrodinger_product(schrodinger3, x, 0.0, n)
        s1 = mp_norm_2x2(full)
        det = abs(full[0, 0] * full[1, 1] - full[0, 1] * full[1, 0])
        oracle = np.array([float(mp.log(s1) / n), float(mp.log(det / s1) / n)])
        assert np.max(np.abs(prof - oracle)) <= 1e-8


class TestFiniteScaleExponents:
    def test_constant_exact_any_grid(self, golden):
        fam = ConstantFamily(base=golden, dim=3, matrix=np.diag([2.0, 1.0, 0.5]))
        for n in (1, 16):
            for m in (1, 8, 33):
                lam = fam.finite_scale_exponents(0.0, n, m)
                assert np.allclose(lam, [LN2, 0.0, -LN2], atol=1e-12)

    def test_diagonal_exp_closed_form_oracle(self, golden):
        fam = DiagonalExpFamily(
            base=golden, dim=2, x_amp=np.array([2.0, -2.0]), e_amp=np.zeros(2)
        )
        n, m = 8, 128
        xs = torus_grid(1, m)[:, 0]
        s = np.zeros(m)
        for j in range(1, n + 1):
            s += 2.0 * np.cos(2 * np.pi * (xs + j * golden.omega[0]))
        # single harmonic: the signed sum cancels exactly on the grid ...
        assert abs(np.mean(s)) <= 1e-13
        # ... while the exponent averages |s| (norm of a diagonal product)
        lam = fam.finite_scale_exponents(0.0, n, m)
        assert abs(lam[0] - np.mean(np.abs(s)) / n) <= 1e-12
        assert abs(lam[0] + lam[1]) <= 1e-13

    def test_cocycle_relation_pointwise(self, schrodinger3):
        xs = np.array([[0.11], [0.47], [0.83]])
        n, m = 20, 12
        both = schrodinger3.orbit_lognorms(0.0, xs, n + m)[0]
        first = schrodinger3.orbit_lognorms(0.0, xs, m)[0]
        shifted = schrodinger3.orbit_lognorms(
            0.0, schrodinger3.base.orbit_points(xs, m), n
        )[0]
        assert np.all(both <= shifted + first + 1e-10)

    def test_monotone_decrease_and_superadditivity(self, schrodinger_ladder):
        scales, ladder = schrodinger_ladder
        vals = [ladder[n][0] for n in scales]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + cocycle.QUADRATURE_TOL
        for i in range(len(scales) - 1):
            n = m = scales[i]
            lhs = n * vals[i] + m * vals[i]
            rhs = (n + m) * vals[i + 1]
            assert lhs >= rhs - 2 * cocycle.QUADRATURE_TOL * (n + m)

    def test_partial_sum_consistency(self, schrodinger3):
        n, m = 32, 64
        xs = torus_grid(1, m)
        from cocyclelab.util import pairwise_mean

        lam = schrodinger3.finite_scale_exponents(0.0, n, m)
        for p in (1, 2):
            avg = pairwise_mean(schrodinger3.orbit_lognorms(0.0, xs, n, p=p)[0]) / n
            assert abs(avg - np.sum(lam[:p])) <= 1e-10

    def test_unit_determinant_zero_sum(self, schrodinger_ladder):
        scales, ladder = schrodinger_ladder
        for n in scales:
            assert abs(np.sum(ladder[n])) <= 1e-10


class TestQrCrossCheck:
    def test_exact_on_axis_aligned_families(self, golden):
        fam = ConstantFamily(base=golden, dim=3, matrix=np.diag([2.0, 1.0, 0.5]))
        got = fam.finite_scale_exponents_qr(0.0, 256, 8)
        assert np.allclose(got, [LN2, 0.0, -LN2], atol=1e-6)
        # diagonal family with a genuine gap: drift dominates oscillation,
        # so the QR frame is the singular frame and the estimators coincide
        dfam = DiagonalExpFamily(
            base=golden, dim=2, x_amp=np.array([1.5, -1.5]),
            e_amp=np.array([1.0, -1.0]), param_values=np.array([0.5]),
        )
        a = dfam.finite_scale_exponents_qr(0.5, 256, 64)
        b = dfam.finite_scale_exponents(0.5, 256, 64)
        assert np.max(np.abs(a - b)) <= 1e-6

    def test_zero_gap_family_shows_finite_scale_split(self, golden):
        # with no spectral gap the signed QR growth and the top singular
        # growth differ by exactly the O(1/n) finite-scale quantity
        dfam = DiagonalExpFamily(
            base=golden, dim=2, x_amp=np.array([1.5, -1.5]), e_amp=np.zeros(2)
        )
        a = dfam.finite_scale_exponents_qr(0.0, 256, 64)
        b = dfam.finite_scale_exponents(0.0, 256, 64)
        assert abs(a[0]) <= 1e-12      # signed growth cancels on the grid
        assert b[0] > 1e-4             # singular growth cannot cancel

    def test_generic_family_agreement_is_frame_limited(self, schrodinger3):
        # rotation factors displace the QR frame from the singular frame by
        # an O(1/n) correction, so agreement is coarse, not 1e-6
        a = schrodinger3.finite_scale_exponents_qr(0.0, 1024, 256)
        b = schrodinger3.finite_scale_exponents(0.0, 1024, 256)
        diff = abs(a[0] - b[0])
        assert diff <= 1e-3
        assert abs(a[0] + a[1]) <= 1e-10  # determinant is exactly one


class TestLadderCheck:
    def test_stacked_ladder_rows_and_check(self, golden, tmp_path):
        fam = ConstantFamily(base=golden, dim=2, matrix=np.diag([2.0, 0.5]))
        ladder = fam.exponent_ladder(np.array([0.0, 1.0]), (1, 2, 4), 4)
        assert sorted(ladder) == [1, 2, 4] and ladder[4].shape == (2, 2)
        check_ladder(ladder, [0.0, 1.0], True, 1e-9)
        assert abs(ladder[4][0, 0] - LN2) <= 1e-12
        cfg = tmp_path / "c.cfg"
        cfg.write_text("cocycle.kind = constant\ncocycle.entries = 2,0,0,0.5\n"
                       "param.E_min = 0\nparam.E_max = 1\nparam.E_count = 2\n"
                       "numerics.n_max = 4\nnumerics.grid = 4\n")
        res = CliRunner().invoke(cli_main, ["exponents", "--config", str(cfg),
                                            "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output
        lines = (tmp_path / "o" / "exponents.csv").read_text().splitlines()
        rows = [tuple(float(c) for c in l.split(",")) for l in lines if l[0] not in "#E"]
        # one row per (E, n, j), in that order
        assert [r[:3] for r in rows] == sorted(
            (E, n, j) for E in (0.0, 1.0) for n in (1, 2, 4) for j in (1, 2))
        assert all(abs(abs(r[3]) - LN2) <= 1e-12 for r in rows)

    def test_check_flags_bad_ordering(self):
        with pytest.raises(ValidationError, match="ordering violated at E=0.0, n=2"):
            check_ladder({2: np.array([[0.1, 0.5]])}, [0.0], False, 1e-9)

    def test_check_flags_sum_rule(self):
        with pytest.raises(ValidationError, match="zero-sum"):
            check_ladder({2: np.array([[0.5, 0.1]])}, [0.0], True, 1e-9)

    def test_qr_method_table(self, golden):
        fam = ConstantFamily(base=golden, dim=2, matrix=np.diag([3.0, 1.0 / 3.0]))
        lam = fam.finite_scale_exponents_qr(0.0, 8, 4)
        assert abs(lam[0] - np.log(3.0)) <= 1e-9


class TestTwoTorus:
    def test_exponents_on_two_torus(self):
        base = ShiftBase(omega=cocycle.DEFAULT_OMEGA_2D)
        fam = DiagonalExpFamily(
            base=base, dim=2, x_amp=np.array([1.0, -1.0]), e_amp=np.zeros(2),
        )
        lam = fam.finite_scale_exponents(0.0, 8, 16)
        assert lam.shape == (2,)
        assert abs(lam[0] + lam[1]) <= 1e-12
        assert lam[0] >= 0.0


@pytest.fixture
def orbit_calls(monkeypatch):
    """Counts ``orbit_lognorms`` calls."""
    calls = []
    real = cocycle.CocycleFamily.orbit_lognorms

    def counted(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(cocycle.CocycleFamily, "orbit_lognorms", counted)
    return calls


def split_exp(golden, e_amp=(1.0, -1.0)):
    """``diag(exp(cos 2 pi x + E), exp(-cos 2 pi x - E))``: gap ``2E``."""
    return DiagonalExpFamily(base=golden, dim=2, x_amp=np.array([1.0, -1.0]),
                             e_amp=np.array(e_amp))


class TestStackedEnergies:
    @pytest.mark.parametrize("kind", ["schrodinger", "diagonal-exp"])
    def test_stacked_ladder_equals_per_energy_ladders(self, golden, kind):
        if kind == "schrodinger":
            fam = SchrodingerFamily(base=golden, dim=2, coupling=3.0)
        else:
            fam = split_exp(golden, e_amp=(0.7, -0.3))
        energies = np.array([-0.7, 0.2, 1.1])
        stacked = fam.exponent_ladder(energies, (4, 16, 64), 128)
        for k, E in enumerate(energies):
            single = fam.exponent_ladder(E, (4, 16, 64), 128)
            for n in (4, 16, 64):
                assert stacked[n].shape == (3, 2)
                assert (stacked[n][k] == single[n]).all()

    def test_chunks_move_no_bits(self, schrodinger3, monkeypatch):
        xs = torus_grid(1, 16)
        energies = np.linspace(-1.0, 1.0, 5)
        whole = schrodinger3.orbit_lognorms(energies, xs, 32, checkpoints=(8, 32))
        assert whole.shape == (2, 5 * 16)
        monkeypatch.setattr(cocycle, "STACK_POINTS", 40)  # two energies per pass
        assert (schrodinger3.orbit_lognorms(energies, xs, 32, checkpoints=(8, 32)) == whole).all()

    def test_refusal_names_its_energy(self, golden):
        fam = split_exp(golden, e_amp=(1.0, 1.0))
        # exp(400) squared leaves the float range at step 1
        with pytest.raises(NumericalRefusal, match=r"step 1, .*\(E=400\.0\)$"):
            fam.exponent_ladder(np.array([0.0, 400.0]), (4,), 8)

    def test_energy_shape_validated(self, schrodinger3):
        for bad in (np.zeros((2, 2)), np.zeros(0)):
            with pytest.raises(ValidationError, match="1-d"):
                schrodinger3.orbit_lognorms(bad, torus_grid(1, 4), 2)

    @pytest.mark.parametrize("budget", [4, 24])
    def test_holder_makes_two_ladder_calls(self, golden, orbit_calls, budget):
        est = rates.holder_estimate(split_exp(golden), 1, (1.0, 2.0), n=8, m=16,
                                    pair_budget=budget, beta0_scale=2)
        assert est.pairs_used + est.pairs_excluded == budget
        assert len(orbit_calls) == 2 * 2

    def test_failed_gap_check_refuses_before_pair_work(self, golden, orbit_calls):
        with pytest.raises(NumericalRefusal, match="gap check"):
            rates.holder_estimate(split_exp(golden), 1, (0.0, 1.0), n=8, m=16)
        assert len(orbit_calls) == 2

    @pytest.mark.parametrize("count", [2, 5])
    def test_exponents_makes_one_ladder_call(self, tmp_path, orbit_calls, count):
        cfg = tmp_path / "d.cfg"
        cfg.write_text("cocycle.kind = diagonal-exp\ncocycle.x_amp = 1,-1\n"
                       f"cocycle.e_amp = 1,-1\nparam.E_count = {count}\n"
                       "param.E_min = 1\nparam.E_max = 2\n"
                       "numerics.n_max = 8\nnumerics.grid = 16\n")
        res = CliRunner().invoke(cli_main, ["exponents", "--config", str(cfg),
                                            "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output
        assert len(orbit_calls) == 2

    def test_almost_invariance_makes_one_call(self, schrodinger3, orbit_calls):
        rep = ldt.almost_invariance(schrodinger3, 0.0, 16, 3, 64)
        assert rep.ok and len(orbit_calls) == 1
