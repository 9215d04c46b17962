import itertools
import warnings

import mpmath as mp
import numpy as np
import pytest
from click.testing import CliRunner

from cocyclelab import cocycle, ldt, linalg, rates
from cocyclelab.cli import main as cli_main
from cocyclelab.cocycle import (
    DiagonalExpFamily,
    SchrodingerFamily,
    ShiftBase,
    TrigPolyFamily,
    check_ladder,
    grid_phasors,
)
from cocyclelab.errors import NumericalRefusal, ValidationError
from cocyclelab.util import pairwise_mean
from tests.families import constant_family
from tests.torus_points import phasors, torus_grid

LN2 = np.log(2.0)


def finite_scale_exponents_qr(fam, E: float, n: int, m: int) -> np.ndarray:
    """QR-accumulation (diagonal-of-R) reference for ``finite_scale_exponents``.

    Exact on families whose frames stay axis-aligned; for generic
    families it differs from the compound estimator by an O(1/n)
    frame-alignment correction.
    """
    q = np.broadcast_to(np.eye(fam.dim), (m, fam.dim, fam.dim)).copy()
    sums = np.zeros((m, fam.dim), dtype=np.float64)
    z, w = grid_phasors(m), fam.base.rotation(range(1, n + 1))
    for j in range(1, n + 1):
        q, r = np.linalg.qr(np.matmul(fam.evaluate_batch(z * w[j - 1], E), q))
        diag = np.diagonal(r, axis1=1, axis2=2)
        q = q * np.where(diag < 0.0, -1.0, 1.0)[:, np.newaxis, :]
        assert np.all(diag != 0.0), f"rank collapse in QR accumulation at step {j}"
        sums += np.log(np.abs(diag))
    return np.array([pairwise_mean(sums[:, j]) for j in range(fam.dim)]) / n


#: constant, cosine and sine coefficients of the benchmark's trig3 family
TRIG3 = (np.array([[4.0, 0.3, 0.1], [0.2, 2.5, 0.3], [0.0, 0.1, 1.5]]),
         np.array([[0.5, 0.2, 0.0], [0.0, 0.4, 0.1], [0.2, 0.3, 0.3]]),
         np.array([[0.0, 0.2, 0.1], [0.1, 0.0, 0.2], [0.3, 0.0, 0.1]]))


def trig3_family() -> TrigPolyFamily:
    """The benchmark's trig3 family: d = 3 on the two-torus, degree 1."""
    c0, c1, s1 = TRIG3
    return TrigPolyFamily(base=ShiftBase(omega=cocycle.DEFAULT_OMEGA_2D), dim=3,
                          cos_coeffs=np.stack([c0, c1], axis=-1), sin_coeffs=s1[..., np.newaxis])


def mp_norm_2x2(m):
    """Extended-precision spectral norm of a 2x2 mpmath matrix."""
    fro2 = sum(m[i, j] ** 2 for i in range(2) for j in range(2))
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    gap = mp.sqrt(max(fro2 * fro2 - 4 * det * det, mp.mpf(0)))
    return mp.sqrt((fro2 + gap) / 2)


def mp_schrodinger_product(fam: SchrodingerFamily, x: float, E: float, n: int):
    """Assembled product in mpmath along the exact orbit ``x + j omega``
    (mod 1) of the float start point, which the engine walks."""
    omega = mp.mpf(fam.base.omega[0])
    full = None
    for j in range(1, n + 1):
        xj = mp.frac(mp.mpf(x) + j * omega)
        v = mp.mpf(fam.coupling) * 2 * mp.cos(2 * mp.pi * xj)
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

    def test_two_torus_default(self):
        base = ShiftBase(omega=cocycle.DEFAULT_OMEGA_2D)
        assert base.nu == 2

    def test_rejects_rational_total_rotation(self):
        # each frequency is irrational, but Omega = 1.0 freezes every phase
        omega = (np.sqrt(2.0) - 1.0, 2.0 - np.sqrt(2.0))
        assert sum(omega) == 1.0
        with pytest.raises(ValidationError, match=r"total rotation Omega=1\.0 mod 1 is rational"):
            ShiftBase(omega=omega)
        with pytest.raises(ValidationError, match=r"Omega=.* \(1/2\)"):
            ShiftBase(omega=(np.sqrt(2.0) - 1.0, 1.5 - np.sqrt(2.0)))

    def test_grid_phasors_are_the_circle_grid_bit_for_bit(self):
        for m in (1, 7, 64, 1024):
            assert np.array_equal(grid_phasors(m), np.exp(2j * np.pi * np.sum(
                torus_grid(1, m), axis=-1)))


def evaluate(fam, x, E: float) -> np.ndarray:
    """The cocycle matrix at one base point."""
    return fam.evaluate_batch(phasors(x), E)[0]


class TestEvaluate:
    def test_constant_everywhere(self, golden):
        m = np.diag([2.0, 0.5])
        fam = constant_family(golden, m)
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
        zeta = grid_phasors(64)
        got = fam.evaluate_batch(zeta, 0.0)
        for i, j in np.ndindex(2, 2):
            want = cocycle._fourier(zeta, cocycle._fourier_series(cos_c[i, j], sin_c[i, j]))
            assert np.array_equal(got[:, i, j], want[0])

    @pytest.mark.parametrize("kind", ["constant", "diagonal-exp", "trig-poly", "schrodinger"])
    def test_energy_stack_is_per_energy_calls_lanes_last(self, kind):
        # lane k * B + b is energy k at point b, with the bits of the
        # one-energy call; the energy-free kinds tile their value
        base = ShiftBase(omega=cocycle.DEFAULT_OMEGA_2D)
        rng = np.random.default_rng(19)
        fam = {
            "constant": lambda: constant_family(base, np.diag([2.0, 1.0, 0.5])),
            "diagonal-exp": lambda: DiagonalExpFamily(
                base=base, dim=3, x_amp=np.array([1.0, 0.5, -1.5]),
                e_amp=np.array([0.3, -0.6, 0.3])),
            "trig-poly": lambda: TrigPolyFamily(
                base=base, dim=3,
                cos_coeffs=rng.standard_normal((3, 3, 3)) * 0.1 + 3.0 * np.eye(3)[:, :, None],
                sin_coeffs=rng.standard_normal((3, 3, 2)) * 0.1),
            "schrodinger": lambda: SchrodingerFamily(base=base, dim=2, coupling=3.0),
        }[kind]()
        zeta = phasors(torus_grid(2, 8))
        energies = np.array([-1.5, 0.0, 0.25, 2.0])
        got = fam.evaluate_batch(zeta, energies)
        d = fam.dim
        assert got.shape == (energies.size * zeta.size, d, d)
        assert got.transpose(1, 2, 0).flags.c_contiguous
        per_energy = [fam.evaluate_batch(zeta, E) for E in energies]
        assert all(m.shape == (zeta.size, d, d) for m in per_energy)
        assert np.array_equal(got, np.concatenate(per_energy))
        if kind in ("constant", "trig-poly"):
            assert all(np.array_equal(m, per_energy[0]) for m in per_energy)

    def test_construction_rejects_singular_family(self, golden):
        with pytest.raises(ValidationError, match=r"numerically singular at t=0\.0, E=0\.0"):
            constant_family(golden, np.diag([1.0, 0.0]))

    def test_construction_rejects_a_series_without_its_constant_term(self, golden):
        # a degree axis of length 0 has no term to evaluate: refused, not reshaped
        with pytest.raises(ValidationError, match=r"shape \(dim, dim, degree\+1\)"):
            TrigPolyFamily(base=golden, dim=2, cos_coeffs=np.zeros((2, 2, 0)))
        with pytest.raises(ValidationError, match="sampling_cos needs at least its constant term"):
            SchrodingerFamily(base=golden, dim=2, sampling_cos=np.zeros(0))


def fourier_loop(zeta, cos_coeffs, sin_coeffs):
    """The reference series: the loop that rebuilt the coefficient rows and
    walked them on every call, before the terms were listed once."""
    cos_rows = np.reshape(cos_coeffs, (-1, np.shape(cos_coeffs)[-1]))
    sin_rows = np.reshape(sin_coeffs, (len(cos_rows), -1))
    out = np.empty((len(cos_rows), zeta.size))
    out[:] = cos_rows[:, :1]
    term, power = np.empty(zeta.size), None
    for k in range(1, max(cos_rows.shape[1], sin_rows.shape[1] + 1)):
        power = zeta if power is None else power * zeta
        for coeffs, part in ((cos_rows[:, k:k + 1], power.real), (sin_rows[:, k - 1:k], power.imag)):
            for row, c in zip(out, coeffs.ravel()):
                if c:
                    row += np.multiply(part, c, out=term)
    return out.reshape(np.shape(cos_coeffs)[:-1] + zeta.shape)


def sparse_coefficients(rng, shape, degree):
    """Cosine and sine coefficients with about half of them zero (``-0.0``
    among them), so that zeros lie between nonzero terms."""
    def draw(k):
        c = rng.standard_normal(shape + (k,))
        c[rng.random(c.shape) < 0.5] = 0.0
        c[rng.random(c.shape) < 0.1] = -0.0
        return c
    return draw(degree + 1), draw(degree)


class TestFourierSeries:
    """Each family lists its nonzero Fourier terms once; a row adds them in
    the order of the reference loop, so every entry keeps its bits."""

    SERIES = {
        "zeros-between": ([1.0, 0.0, 0.5, 0.0, 0.25], [0.0, 0.3, 0.0, 0.1]),
        "degree-0": ([2.0], []),
        "cos-only": ([0.1, 0.2, 0.3], []),
        "cos-only-zero-sines": ([0.1, 0.0, 0.3], [0.0, 0.0]),
        "sin-only": ([0.0], [0.5, 0.0, 0.2]),
        "trailing-zeros": ([1.0, 0.5, 0.0, 0.0], [0.0, -0.0, 0.0]),
        "all-zero": ([0.0, 0.0], [-0.0]),
    }

    def zetas(self):
        rng = np.random.default_rng(23)
        return [grid_phasors(64), np.exp(2j * np.pi * rng.random(37)), phasors(0.3)]

    @pytest.mark.parametrize("name", SERIES)
    def test_one_row_has_the_bits_of_the_loop(self, name):
        cos_c, sin_c = (np.array(c, dtype=np.float64) for c in self.SERIES[name])
        series = cocycle._fourier_series(cos_c, sin_c)
        for zeta in self.zetas():
            got = cocycle._fourier(zeta, series)
            assert got.shape == (1, zeta.size)
            assert got.tobytes() == fourier_loop(zeta, cos_c, sin_c).tobytes()

    @pytest.mark.parametrize("shape", [(), (2, 2), (3, 3)], ids=["1-row", "4-rows", "9-rows"])
    @pytest.mark.parametrize("degree", [0, 1, 3])
    def test_rows_have_the_bits_of_the_loop(self, shape, degree):
        rng = np.random.default_rng(29 + degree)
        cos_c, sin_c = sparse_coefficients(rng, shape, degree)
        series = cocycle._fourier_series(cos_c, sin_c)
        assert all(c != 0.0 for *_, c in series[1])
        for zeta in self.zetas():
            want = fourier_loop(zeta, cos_c, sin_c)
            got = cocycle._fourier(zeta, series)
            assert got.tobytes() == want.reshape(got.shape).tobytes()

    def test_families_evaluate_the_loop(self, golden):
        rng = np.random.default_rng(31)
        cos_c, sin_c = sparse_coefficients(rng, (3, 3), 2)
        cos_c[..., 0] += 6.0 * np.eye(3)  # invertible on the construction grid
        trig = TrigPolyFamily(base=golden, dim=3, cos_coeffs=cos_c, sin_coeffs=sin_c)
        sch = SchrodingerFamily(base=golden, dim=2, coupling=1.5,
                                sampling_cos=np.array([0.5, 1.0, 0.0, 0.3]),
                                sampling_sin=np.array([0.0, 0.2, -0.4]))
        energies = np.array([-1.0, 0.0, 2.5])
        for zeta in self.zetas():
            assert trig.evaluate_batch(zeta, 0.0).tobytes() == (
                fourier_loop(zeta, cos_c, sin_c).transpose(2, 0, 1).tobytes())
            v = sch.coupling * fourier_loop(zeta, sch.sampling_cos, sch.sampling_sin)
            got = sch.evaluate_batch(zeta, energies)[:, 0, 0]
            assert got.tobytes() == (v - energies[:, np.newaxis]).ravel().tobytes()


def orbit_product(fam, x, E: float, n: int) -> float:
    """Log-norm of the scale-``n`` product over the orbit of one point,
    through the shared accumulator."""
    z, w = phasors(x), fam.base.rotation(range(1, n + 1))
    logs = linalg.scaled_product(lambda j: fam.evaluate_batch(z * w[j - 1], E), n)
    assert logs.shape == (1, 1)
    return float(logs[0, 0])


def log_singular_profile(fam, x, E: float, n: int) -> np.ndarray:
    """Per-point ``(1/n) log sigma_j(A^(n)_x)`` from compound top growth."""
    z = phasors(x)
    partial = [0.0] + [fam.orbit_lognorms(E, z, n, p=p)[0, 0] for p in range(1, fam.dim + 1)]
    return np.diff(partial) / n


class TestProductOrbit:
    def test_constant_diagonal_powers(self, golden):
        fam = constant_family(golden, np.diag([2.0, 0.5]))
        log_scale = orbit_product(fam, 0.1, 0.0, 10)
        assert abs(log_scale - 10 * LN2) <= 1e-12

    def test_single_factor_is_shifted_evaluate(self, golden):
        fam = SchrodingerFamily(base=golden, dim=2, coupling=2.0)
        x, E = 0.2, 0.3
        log_scale = fam.orbit_lognorms(E, phasors(x), 1)[0, 0]
        direct = evaluate(fam, np.mod(x + golden.omega[0], 1.0), E)
        assert abs(log_scale - np.log(np.linalg.norm(direct, 2))) <= 1e-14

    def test_extended_precision_oracle_n3(self, schrodinger3):
        mp.mp.dps = 50
        rng = np.random.default_rng(5)
        E = float(rng.uniform(-1, 1))
        x = float(rng.uniform(0, 1))
        log_scale = schrodinger3.orbit_lognorms(E, phasors(x), 3)[0, 0]
        oracle = float(mp.log(mp_norm_2x2(mp_schrodinger_product(schrodinger3, x, E, 3))))
        assert abs(log_scale - oracle) <= 1e-12 * abs(oracle)

    def test_bitwise_reproducible(self, schrodinger3):
        a = orbit_product(schrodinger3, 0.123, 0.0, 50)
        b = orbit_product(schrodinger3, 0.123, 0.0, 50)
        assert a == b
        # the orbit kernel at B = 1 is the same accumulation
        assert schrodinger3.orbit_lognorms(0.0, phasors(0.123), 50)[0, 0] == a


class TestLogSingularProfile:
    def test_constant_diagonal(self, golden):
        fam = constant_family(golden, np.diag([2.0, 1.0, 0.5]))
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
        fam = constant_family(golden, np.diag([2.0, 1.0, 0.5]))
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
        z = phasors([0.11, 0.47, 0.83])
        n, m = 20, 12
        both = schrodinger3.orbit_lognorms(0.0, z, n + m)[0]
        first = schrodinger3.orbit_lognorms(0.0, z, m)[0]
        shifted = schrodinger3.orbit_lognorms(0.0, z * schrodinger3.base.rotation([m])[0], n)[0]
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
        lam = schrodinger3.finite_scale_exponents(0.0, n, m)
        for p in (1, 2):
            avg = pairwise_mean(schrodinger3.orbit_lognorms(0.0, grid_phasors(m), n, p=p)[0]) / n
            assert abs(avg - np.sum(lam[:p])) <= 1e-10

    def test_unit_determinant_zero_sum(self, schrodinger_ladder):
        scales, ladder = schrodinger_ladder
        for n in scales:
            assert abs(np.sum(ladder[n])) <= 1e-10


class TestQrCrossCheck:
    def test_exact_on_axis_aligned_families(self, golden):
        fam = constant_family(golden, np.diag([2.0, 1.0, 0.5]))
        got = finite_scale_exponents_qr(fam, 0.0, 256, 8)
        assert np.allclose(got, [LN2, 0.0, -LN2], atol=1e-6)
        # diagonal family with a genuine gap: drift dominates oscillation,
        # so the QR frame is the singular frame and the estimators coincide
        dfam = DiagonalExpFamily(
            base=golden, dim=2, x_amp=np.array([1.5, -1.5]),
            e_amp=np.array([1.0, -1.0]), param_values=np.array([0.5]),
        )
        a = finite_scale_exponents_qr(dfam, 0.5, 256, 64)
        b = dfam.finite_scale_exponents(0.5, 256, 64)
        assert np.max(np.abs(a - b)) <= 1e-6

    def test_zero_gap_family_shows_finite_scale_split(self, golden):
        # with no spectral gap the signed QR growth and the top singular
        # growth differ by exactly the O(1/n) finite-scale quantity
        dfam = DiagonalExpFamily(
            base=golden, dim=2, x_amp=np.array([1.5, -1.5]), e_amp=np.zeros(2)
        )
        a = finite_scale_exponents_qr(dfam, 0.0, 256, 64)
        b = dfam.finite_scale_exponents(0.0, 256, 64)
        assert abs(a[0]) <= 1e-12      # signed growth cancels on the grid
        assert b[0] > 1e-4             # singular growth cannot cancel

    def test_generic_family_agreement_is_frame_limited(self, schrodinger3):
        # rotation factors displace the QR frame from the singular frame by
        # an O(1/n) correction, so agreement is coarse, not 1e-6
        a = finite_scale_exponents_qr(schrodinger3, 0.0, 1024, 256)
        b = schrodinger3.finite_scale_exponents(0.0, 1024, 256)
        diff = abs(a[0] - b[0])
        assert diff <= 1e-3
        assert abs(a[0] + a[1]) <= 1e-10  # determinant is exactly one


class TestLadderCheck:
    def test_stacked_ladder_rows_and_check(self, golden, tmp_path):
        fam = constant_family(golden, np.diag([2.0, 0.5]))
        ladder = fam.exponent_ladder(np.array([0.0, 1.0]), (1, 2, 4), 4)
        assert sorted(ladder) == [1, 2, 4] and ladder[4].shape == (2, 2)
        check_ladder(ladder, [0.0, 1.0], 1e-9)
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
            check_ladder({2: np.array([[0.1, 0.5]])}, [0.0], 1e-9)

    def test_qr_method_table(self, golden):
        fam = constant_family(golden, np.diag([3.0, 1.0 / 3.0]))
        lam = finite_scale_exponents_qr(fam, 0.0, 8, 4)
        assert abs(lam[0] - np.log(3.0)) <= 1e-9


class TestNoPerMatrixLapack:
    def test_d3_orbit_step_calls_no_lapack(self, monkeypatch):
        base = ShiftBase(omega=cocycle.DEFAULT_OMEGA_2D)
        fam = TrigPolyFamily(base=base, dim=3,
                             cos_coeffs=np.eye(3)[..., np.newaxis] * [2.0, 0.5],
                             sin_coeffs=np.ones((3, 3, 1)) * 0.3)
        z = grid_phasors(8)
        n = 12
        w = base.rotation(range(1, n + 1))
        factors = [fam.evaluate_batch(z * w[j - 1], 0.0) for j in range(1, n + 1)]
        prod = factors[0]
        for f in factors[1:]:
            prod = f @ prod
        sigma = np.linalg.svd(prod, compute_uv=False)
        logdet = sum(np.log(np.abs(np.linalg.det(f))) for f in factors)

        def lapack(*args, **kwargs):
            raise AssertionError("per-matrix LAPACK call on the orbit step")

        monkeypatch.setattr(np.linalg, "det", lapack)
        monkeypatch.setattr(np.linalg, "svd", lapack)
        for p, want in ((1, np.log(sigma[:, 0])), (2, np.log(sigma[:, 0] * sigma[:, 1])),
                        (3, logdet)):
            got = fam.orbit_lognorms(0.0, z, n, p=p)[0]
            assert np.max(np.abs(got - want)) <= 1e-12 * n


    @pytest.mark.parametrize("kind", ["trig-poly", "schrodinger"])
    def test_orbit_pass_takes_no_transcendental_per_step_and_no_matmul(self, monkeypatch,
                                                                      kind):
        if kind == "trig-poly":
            fam = TrigPolyFamily(base=ShiftBase(omega=cocycle.DEFAULT_OMEGA_2D), dim=3,
                                 cos_coeffs=np.eye(3)[..., np.newaxis] * [2.0, 0.5],
                                 sin_coeffs=np.ones((3, 3, 1)) * 0.3)
        else:
            fam = SchrodingerFamily(base=cocycle.golden_base(), dim=2, coupling=3.0)
        z = grid_phasors(8)
        calls = {}
        for name in ("cos", "sin", "exp", "matmul"):
            def counted(*args, _name=name, _real=getattr(np, name), **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np, name, counted)
        per_pass = []
        for n in (1, 12):
            calls.clear()
            fam.orbit_lognorms(0.0, z, n, p=1)
            per_pass.append(dict(calls))
        # the step rotations, once per pass; the start phasors come in
        assert per_pass[0] == per_pass[1] == {"exp": 1}


class TestExactOrbitPhase:
    """The per-point entries along the orbit against mpmath on the exact
    orbit ``t(x) + j Omega``, at steps up to 10^6.  At powers of two ``j
    omega`` is exact in floating point, so most steps here are not."""

    STEPS = (1, 100, 12345, 99999, 777777, 10**6)

    def entries_along_orbit(self, fam, xs):
        # the phasors of an orbit pass (see the last test), at the chosen steps only
        z, w = phasors(xs), fam.base.rotation(range(1, max(self.STEPS) + 1))
        return {j: fam.evaluate_batch(z * w[j - 1], 0.0) for j in self.STEPS}

    def mp_phase(self, base, x, j):
        return sum(mp.mpf(float(c)) for c in x) + j * sum(mp.mpf(w) for w in base.omega)

    def test_trig3_entries(self):
        c0, c1, s1 = TRIG3
        fam = trig3_family()
        base = fam.base
        xs = torus_grid(2, 64)[::97]
        assert xs.shape == (43, 2)
        mp.mp.dps = 30
        for j, got in self.entries_along_orbit(fam, xs).items():
            for x, m in zip(xs, got):
                t = 2 * mp.pi * self.mp_phase(base, x, j)
                c, s = mp.cos(t), mp.sin(t)
                for (i, k), v in np.ndenumerate(m):
                    want = c0[i, k] + c1[i, k] * c + s1[i, k] * s
                    assert abs(v - float(want)) <= 1e-14, (j, tuple(x), i, k)

    def test_schrodinger_entries(self, schrodinger3):
        xs = np.random.default_rng(29).uniform(0.0, 1.0, (16, 1))
        mp.mp.dps = 30
        for j, got in self.entries_along_orbit(schrodinger3, xs).items():
            for x, m in zip(xs, got):
                v = 6 * mp.cos(2 * mp.pi * self.mp_phase(schrodinger3.base, x, j))
                assert abs(m[0, 0] - float(v)) <= 1e-14, (j, x[0])
                assert (m[0, 1], m[1, 0], m[1, 1]) == (-1.0, 1.0, 0.0)

    def test_one_rotation_far_out(self):
        # w_j of one step j is exact and its cost does not grow with j
        base = ShiftBase(omega=cocycle.DEFAULT_OMEGA_2D)
        mp.mp.dps = 50
        for j in (99999, 10**12, 10**18):
            t = j * sum(mp.mpf(w) for w in base.omega)
            want = complex(mp.exp(2j * mp.pi * (t - mp.floor(t))))
            assert abs(base.rotation([j])[0] - want) <= 1e-15, j
        assert base.rotation([99999]) == base.rotation(range(1, 100000))[-1]

    def test_orbit_phasors_are_start_phasors_times_rotations(self, monkeypatch):
        # what an orbit pass hands evaluate_batch for step j, for order 1 and
        # for the top order: z * w_j, in step order, at 1, 2 and 5 steps a call
        fam = TrigPolyFamily(base=ShiftBase(omega=cocycle.DEFAULT_OMEGA_2D), dim=2,
                             cos_coeffs=np.eye(2)[..., np.newaxis] * [2.0, 0.5],
                             sin_coeffs=np.ones((2, 2, 1)) * 0.3)
        z = phasors(torus_grid(2, 5))  # phases k/5, whose phasors are not exact
        seen = []
        real = TrigPolyFamily.evaluate_batch
        monkeypatch.setattr(TrigPolyFamily, "evaluate_batch",
                            lambda self, zeta, E: seen.append(zeta.copy()) or real(self, zeta, E))
        for steps, p in itertools.product((1, 2, 5), (1, 2)):
            monkeypatch.setattr(cocycle, "STACK_POINTS", steps * z.size)
            seen.clear()
            fam.orbit_lognorms(0.0, z, 5, p=p)
            assert len(seen) == -(-5 // steps)
            rows = np.concatenate(seen).reshape(5, z.size)
            for j, zeta in enumerate(rows, 1):
                assert np.array_equal(zeta, z * fam.base.rotation([j]))


class TestTopOrderFromDeterminants:
    def test_unit_determinant_top_order_is_exact_zero(self, schrodinger3):
        logs = schrodinger3.orbit_lognorms(np.array([-1.0, 0.5]), grid_phasors(16), 64,
                                           p=2, checkpoints=(1, 16, 64))
        assert np.array_equal(logs, np.zeros((3, 32)))

    def test_non_unit_determinant_against_mpmath(self, golden):
        # log det A = (0.5 + 0.3) cos 2 pi t + (e_1 + e_2) E in closed form,
        # summed in mpmath along the exact orbit t + j Omega, j = 1..n; the
        # product errs by at most 5.6e-16 per step here
        x_amp, e_amp = np.array([0.5, 0.3]), np.array([0.7, -0.2])
        fam = DiagonalExpFamily(base=golden, dim=2, x_amp=x_amp, e_amp=e_amp)
        energies, m, cps = np.array([-1.0, 2.5]), 16, (1, 7, 64)
        got = fam.orbit_lognorms(energies, grid_phasors(m), 64, p=2, checkpoints=cps)
        with mp.workdps(30):
            amp = mp.fsum(mp.mpf(a) for a in x_amp)
            rate = mp.fsum(mp.mpf(a) for a in e_amp)
            omega = mp.mpf(golden.omega[0])
            for k, b in np.ndindex(energies.size, m):
                logdet = [amp * mp.cos(2 * mp.pi * (mp.mpf(b) / m + j * omega))
                          + rate * energies[k] for j in range(1, 65)]
                for row, c in zip(got, cps):
                    want = float(mp.fsum(logdet[:c]))
                    assert abs(row[k * m + b] - want) <= 2e-15 * c, (k, b, c)

    def test_refusal_names_step_matrix_and_energy(self, golden):
        # exp(1 + E) * exp(1 + E) leaves the float range at E = 400 only
        fam = split_exp(golden, e_amp=(1.0, 1.0))
        with pytest.raises(NumericalRefusal,
                           match=r"scaled product at step 1, matrix 4 \(E=400\.0\)$"):
            fam.orbit_lognorms(np.array([0.0, 400.0]), grid_phasors(4), 3, p=2)


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


class TestPhaseGrid:
    """The ``m`` grid phases stand for the ``m^nu`` points of the grid of
    ``T^nu``: each phase ``k/m`` is the phase of ``m^(nu-1)`` of them."""

    @pytest.mark.parametrize("omega", [
        cocycle.DEFAULT_OMEGA_2D,
        (np.sqrt(2.0) - 1.0, np.sqrt(3.0) - 1.0, np.sqrt(5.0) - 2.0),
    ], ids=["nu2", "nu3"])
    def test_ladder_is_the_point_grid_mean(self, omega, monkeypatch):
        rng = np.random.default_rng(23)
        fam = TrigPolyFamily(
            base=ShiftBase(omega=omega), dim=3,
            cos_coeffs=rng.standard_normal((3, 3, 3)) * 0.2 + 2.0 * np.eye(3)[:, :, None],
            sin_coeffs=rng.standard_normal((3, 3, 2)) * 0.2)
        m, scales, energies = 8, (4, 16), np.array([0.0, 0.5])
        lanes = []
        real = TrigPolyFamily.evaluate_batch

        def counted(self, zeta, E):
            out = real(self, zeta, E)
            lanes.append(out.shape[0])
            return out

        monkeypatch.setattr(TrigPolyFamily, "evaluate_batch", counted)
        ladder = fam.exponent_ladder(energies, scales, m)
        # m * K lanes on every step of the three passes, not m^nu * K; a
        # call evaluates whole steps
        assert sum(lanes) == m * energies.size * 3 * scales[-1]
        assert all(k % (m * energies.size) == 0 for k in lanes)
        monkeypatch.undo()
        z = phasors(torus_grid(fam.base.nu, m))
        assert z.size == m ** fam.base.nu
        partial = [np.zeros((len(scales), energies.size))]
        for p in range(1, 4):
            logs = fam.orbit_lognorms(energies, z, scales[-1], p=p, checkpoints=scales)
            partial.append(logs.reshape(len(scales), energies.size, -1).mean(axis=-1))
        want = np.diff(np.stack(partial, axis=-1)) / np.array(scales)[:, np.newaxis, np.newaxis]
        for i, n in enumerate(scales):
            assert np.max(np.abs(ladder[n] - want[i])) <= 1e-13


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
        z = grid_phasors(16)
        energies = np.linspace(-1.0, 1.0, 5)
        whole = schrodinger3.orbit_lognorms(energies, z, 32, checkpoints=(8, 32))
        assert whole.shape == (2, 5 * 16)
        monkeypatch.setattr(cocycle, "STACK_POINTS", 40)  # two energies per pass
        assert (schrodinger3.orbit_lognorms(energies, z, 32, checkpoints=(8, 32)) == whole).all()

    def test_refusal_names_its_energy(self, golden):
        fam = split_exp(golden, e_amp=(1.0, 1.0))
        # exp(400) squared leaves the float range at step 1
        with pytest.raises(NumericalRefusal, match=r"step 1, .*\(E=400\.0\)$"):
            fam.exponent_ladder(np.array([0.0, 400.0]), (4,), 8)

    def test_energy_shape_validated(self, schrodinger3):
        for bad in (np.zeros((2, 2)), np.zeros(0)):
            with pytest.raises(ValidationError, match="1-d"):
                schrodinger3.orbit_lognorms(bad, grid_phasors(4), 2)

    def test_start_points_are_phasors(self, schrodinger3):
        for bad in (torus_grid(1, 4), grid_phasors(4)[:, np.newaxis]):
            with pytest.raises(ValidationError, match="1-d array of phasors"):
                schrodinger3.orbit_lognorms(0.0, bad, 2)

    @pytest.mark.parametrize("budget", [4, 24])
    def test_holder_makes_two_ladder_calls(self, golden, orbit_calls, budget):
        # the gap ladder runs orders 1 and 2; the pair ladder reads lambda_1,
        # which needs order 1 alone
        est = rates.holder_estimate(split_exp(golden), 1, (1.0, 2.0), n=8, m=16, pair_budget=budget)
        assert est.pairs_used + est.pairs_excluded == budget
        assert len(orbit_calls) == 2 + 1

    def test_failed_gap_check_refuses_before_pair_work(self, golden, orbit_calls):
        with pytest.raises(NumericalRefusal, match="gap check"):
            rates.holder_estimate(split_exp(golden), 1, (0.0, 1.0), n=8, m=16)
        assert len(orbit_calls) == 2

    def test_holder_in_one_dimension_runs_no_gap_ladder(self, golden, orbit_calls):
        # d = 1 has no gap to check: the pair ladder is the one pass
        fam = DiagonalExpFamily(base=golden, dim=1, x_amp=np.ones(1), e_amp=np.ones(1))
        est = rates.holder_estimate(fam, 1, (1.0, 2.0), n=8, m=16, kappa=5.0)
        assert est.kappa_min is None and len(orbit_calls) == 1

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
        _, rep, mono = ldt.reports(schrodinger3, 0.0, (8, 16), (0.1,), 64, k=3,
                                   ladder=(4, 8, 16, 32))
        assert rep.ok and mono.scales == (4, 8, 16, 32) and len(orbit_calls) == 1


def per_step_lognorms(fam, E, zeta, n, p, checkpoints):
    """The orbit pass with one ``evaluate_batch`` call per step, the
    reference for the chunked producer: step ``j`` evaluates ``zeta * w_j``."""
    rot = fam.base.rotation(range(1, n + 1))
    return linalg.scaled_product(
        lambda j: linalg.compound_batch(fam.evaluate_batch(zeta * rot[j - 1], E), p),
        n, checkpoints)


class TestStepChunks:
    """With few lanes an orbit pass evaluates ``S`` steps per
    ``evaluate_batch`` call, ``S * K * B <= STACK_POINTS``; every step keeps
    the bits of one step per call.  ``n = 37`` is no multiple of ``S`` and
    the checkpoints lie off chunk and block boundaries."""

    N, CPS = 37, (5, 16, 37)

    def families(self, golden):
        return {
            "trig3": trig3_family(),
            "schrodinger": SchrodingerFamily(base=golden, dim=2, coupling=3.0),
            # exp(90) per step: every 8-step block at E = 90 leaves the float
            # range at orders 1 and 2, and is replayed one step at a time
            "overflowing": split_exp(golden, e_amp=(1.0, 1.0)),
        }

    def chunked(self, fam, energies, zeta, p, monkeypatch):
        """The pass and the points of each of its ``evaluate_batch`` calls."""
        points = []
        real = type(fam).evaluate_batch
        with monkeypatch.context() as patch:
            patch.setattr(type(fam), "evaluate_batch",
                          lambda self, z, E: points.append(z.size * np.size(E)) or real(self, z, E))
            logs = fam.orbit_lognorms(energies, zeta, self.N, p=p, checkpoints=self.CPS)
        return logs, points

    @pytest.mark.parametrize("steps", [1, 3, 8, None], ids=["S1", "S3", "S8", "default"])
    @pytest.mark.parametrize("kind, energies, orders", [
        ("trig3", (0.0, 0.5), (1, 2, 3)),
        ("schrodinger", (-1.3, 0.0, 2.2), (1, 2)),
        ("overflowing", (0.0, 90.0), (1, 2)),
    ], ids=["trig3", "schrodinger", "overflowing"])
    def test_chunked_pass_is_the_per_step_pass(self, golden, monkeypatch, kind, energies,
                                               orders, steps):
        fam, energies, zeta = self.families(golden)[kind], np.array(energies), grid_phasors(16)
        lanes = energies.size * zeta.size
        if steps is not None:
            monkeypatch.setattr(cocycle, "STACK_POINTS", steps * lanes)
        s = min(self.N, cocycle.STACK_POINTS // lanes)
        for p in orders:
            want = per_step_lognorms(fam, energies, zeta, self.N, p, self.CPS)
            got, points = self.chunked(fam, energies, zeta, p, monkeypatch)
            assert np.array_equal(got, want), (p, s)
            if kind == "overflowing" and s < self.N:
                # a replayed block asks again for steps of earlier chunks,
                # which are evaluated again
                assert sum(points) > self.N * lanes, (p, s)
            else:
                # no step is evaluated twice, and a call evaluates S steps
                assert sum(points) == self.N * lanes, (p, s)
                assert points == [s * lanes] * (self.N // s) + [self.N % s * lanes] * (self.N % s > 0)


def schrodinger_configs(golden):
    """``{name: (family, energies)}``: the Schrödinger families and energies
    of the tier-1 configs and benchmark, and a sampling with sine terms."""
    two_torus = ShiftBase(omega=cocycle.DEFAULT_OMEGA_2D)
    sch = lambda coupling, **kw: SchrodingerFamily(base=kw.pop("base", golden), dim=2,
                                                    coupling=coupling, **kw)
    return {
        "coupling-0": (sch(0.0), [0.0, 1.0]),
        "coupling-1": (sch(1.0), [0.0, 1.9, 2.1]),
        "coupling-2": (sch(2.0), [0.0, 0.7]),
        "coupling-3": (sch(3.0), np.linspace(-3.5, 3.5, 8)),
        "coupling-3-holder": (sch(3.0), [8.2, 9.2]),
        "coupling-3-two-torus": (sch(3.0, base=two_torus), [0.0, 2.5]),
        "coupling-50": (sch(50.0), [-100.0, 0.0, 100.0]),
        "sampling-with-sines": (sch(1.5, sampling_cos=np.array([0.5, 1.0, 0.0, 0.3]),
                                    sampling_sin=np.array([0.0, 0.2, -0.4])), [0.0, 1.0]),
    }


class TestRecurrenceStep:
    """The ``p = 1`` pass of the Schrödinger kind steps by its recurrence:
    the bits of the generic multiply's log-norms, and its products up to the
    sign of a zero."""

    N, CPS = 37, (1, 5, 16, 37)

    @pytest.mark.parametrize("lanes", [16, 1024, 2048])
    @pytest.mark.parametrize("name", list(schrodinger_configs(cocycle.golden_base())))
    def test_log_norms_have_the_bits_of_the_generic_step(self, golden, monkeypatch, name,
                                                         lanes):
        fam, energies = schrodinger_configs(golden)[name]
        # a strided energy stack, and one energy, whose 1024 and 2048 lanes
        # evaluate S = 8 and 4 steps per call
        stacks = [np.repeat(energies, 2)[::2], np.asarray(energies)[:1]]
        zeta = grid_phasors(lanes)
        steps = []
        real = cocycle._recurrence_times
        monkeypatch.setattr(cocycle, "_recurrence_times",
                            lambda prod, f: steps.append(1) or real(prod, f))
        fast = [fam.orbit_lognorms(E, zeta, self.N, checkpoints=self.CPS) for E in stacks]
        # the first step of each pass is the generic copy, every later one the
        # recurrence; more than STACK_POINTS lanes run in passes of whole energies
        passes = sum(-(-np.size(E) // max(1, cocycle.STACK_POINTS // lanes)) for E in stacks)
        assert len(steps) == passes * (self.N - 1)
        with monkeypatch.context() as patch:
            patch.setattr(SchrodingerFamily, "_times", lambda self, p: None)
            generic = [fam.orbit_lognorms(E, zeta, self.N, checkpoints=self.CPS) for E in stacks]
        for got, want in zip(fast, generic):
            assert np.all(np.isfinite(got))
            assert got.tobytes() == want.tobytes()
        assert fam._times(2) is None  # p = 2 keeps the generic step

    @pytest.mark.parametrize("name", list(schrodinger_configs(cocycle.golden_base())))
    def test_products_equal_up_to_the_sign_of_a_zero(self, golden, name):
        fam, energies = schrodinger_configs(golden)[name]
        zeta, rot = grid_phasors(64), fam.base.rotation(range(1, 13))
        generic = fast = None
        zeros_of_other_sign = 0
        for j in range(1, 13):
            f = fam.evaluate_batch(zeta * rot[j - 1], energies)
            generic = linalg._times(generic, linalg._lanes(f))
            if fast is None:
                fast = generic.copy()
                continue
            before = fast.copy()
            stepped = cocycle._recurrence_times(fast, f)
            assert fast.tobytes() == before.tobytes()  # the product is not written
            fast = stepped
            assert np.array_equal(fast, generic)  # -0.0 == 0.0
            differ = np.signbit(fast) != np.signbit(generic)
            assert np.all(fast[differ] == 0.0)
            zeros_of_other_sign += np.count_nonzero(differ)
        # at coupling 0 and E = 0 the factors are quarter turns, whose
        # products hold zeros; the einsum and the recurrence sign some apart
        assert (zeros_of_other_sign > 0) == (name == "coupling-0")

    def test_step_never_writes_the_product_a_replay_restarts_from(self):
        # a = 1e300 at steps 11 and 12: the second block overflows and is
        # replayed from the product that ended the first block
        rng = np.random.default_rng(37)
        a = rng.uniform(-3.0, 3.0, (20, 6))
        a[10:12] = 1e300
        stacks = np.zeros((20, 2, 2, 6))  # lanes-last factors [[a, -1], [1, 0]]
        stacks[:, 0, 0], stacks[:, 0, 1], stacks[:, 1, 0] = a, -1.0, 1.0
        factor = lambda j: stacks[j - 1].transpose(2, 0, 1)
        cps = (4, 16, 20)  # blocks 1-4, 5-12, 13-16 and 17-20
        asked = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = linalg.scaled_product(lambda j: asked.append(j) or factor(j), 20, cps,
                                        cocycle._recurrence_times)
        want = linalg.scaled_product(factor, 20, cps)
        assert asked == [*range(1, 13), *range(5, 21)]  # only steps 5-12 are asked again
        assert np.all(np.isfinite(got)) and np.all(got[1:] > 1300.0)
        assert got.tobytes() == want.tobytes()


class TestOrbitPasses:
    """Each orbit subcommand runs only the compound orders it reads."""

    def run_cli(self, tmp_path, sub, extra):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("cocycle.kind = schrodinger\ncocycle.coupling = 3.0\n"
                       f"numerics.n_max = 32\nnumerics.grid = 16\n{extra}")
        res = CliRunner().invoke(cli_main, [sub, "--config", str(cfg),
                                            "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output

    @pytest.mark.parametrize("p, calls", [(1, 1), (2, 2)])
    def test_ldt_makes_one_pass_per_order(self, tmp_path, orbit_calls, p, calls):
        self.run_cli(tmp_path, "ldt", f"ldt.p = {p}\n")
        assert len(orbit_calls) == calls

    @pytest.mark.parametrize("sub", ["rates", "dichotomy"])
    @pytest.mark.parametrize("j, calls", [(1, 1), (2, 2)])
    def test_rate_series_runs_orders_j_minus_1_and_j(self, tmp_path, orbit_calls, sub, j,
                                                     calls):
        self.run_cli(tmp_path, sub, f"rates.j = {j}\ndichotomy.l0 = 8\n")
        assert len(orbit_calls) == calls

    @pytest.mark.parametrize("kind", ["schrodinger", "diagonal-exp", "trig-poly"])
    def test_single_exponent_is_the_ladder_column(self, golden, kind):
        if kind == "schrodinger":
            fam = SchrodingerFamily(base=golden, dim=2, coupling=3.0)
        elif kind == "diagonal-exp":
            fam = DiagonalExpFamily(base=golden, dim=3, x_amp=np.array([1.0, 0.5, -1.5]),
                                    e_amp=np.array([1.0, 0.0, -1.0]))
        else:
            fam = TrigPolyFamily(base=golden, dim=3,
                                 cos_coeffs=np.eye(3)[..., np.newaxis] * [2.0, 0.5],
                                 sin_coeffs=np.ones((3, 3, 1)) * 0.3)
        energies = np.array([-0.4, 0.3])
        full = fam.exponent_ladder(energies, (4, 16), 32)
        for j in range(1, fam.dim + 1):
            one = fam.exponent_ladder(energies, (4, 16), 32, j)
            assert all((one[n] == full[n][:, j - 1]).all() for n in (4, 16))
            assert fam.exponent_ladder(0.3, (16,), 32, j)[16] == full[16][1, j - 1]


# [[cos 2 pi t, -sin 2 pi t], [sin 2 pi t, cos 2 pi t]]
ROTATION_COS = np.array([[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]])
ROTATION_SIN = np.array([[[0.0], [-1.0]], [[1.0], [0.0]]])


def exponent_sums(csv_text: str) -> dict[tuple[float, int], float]:
    """``sum_j lambda_{j,n}`` per ``(E, n)`` from an ``exponents.csv``."""
    sums: dict[tuple[float, int], float] = {}
    for line in csv_text.splitlines():
        if line[0] not in "#E":
            E, n, _, lam = line.split(",")
            sums[float(E), int(n)] = sums.get((float(E), int(n)), 0.0) + float(lam)
    return sums


class TestMeasuredDeterminant:
    """Construction measures nothing about ``det A``: the sum of a ladder
    slot is the top order's mean of ``sum_j log |det A_j| / n``, whatever
    the kind."""

    def run_exponents(self, tmp_path, cos, sin, tail):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"cocycle.kind = trig-poly\ncocycle.trig_degree = {sin.shape[-1]}\n"
                       "cocycle.trig_cos = " + ",".join(map(str, cos.ravel())) + "\n"
                       "cocycle.trig_sin = " + ",".join(map(str, sin.ravel())) + "\n" + tail)
        res = CliRunner().invoke(cli_main, ["exponents", "--config", str(cfg),
                                            "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output
        return exponent_sums((tmp_path / "o" / "exponents.csv").read_text())

    def test_rotation_is_unit_and_passes_the_zero_sum_check(self, tmp_path):
        sums = self.run_exponents(tmp_path, ROTATION_COS, ROTATION_SIN,
                                  "numerics.n_max = 64\nnumerics.grid = 32\n")
        assert len(sums) == 7 and all(abs(v) <= 1e-12 for v in sums.values())

    def test_aliased_determinant_sums_to_its_log_mean(self, tmp_path):
        # det A = 1 + sin(2 pi 32 t) / 2 is 1 to 1e-16 at the 64 construction
        # phases t = b/64, but not along the orbit; exponents runs, and each
        # slot sums to the grid mean of (1/n) sum_j log|det A_j| on the exact
        # orbit t_j = b/64 + j Omega, summed in mpmath
        cos, sin = np.zeros((2, 2, 33)), np.zeros((2, 2, 32))
        cos[0, 0, 0] = cos[1, 1, 0] = 1.0
        sin[0, 0, 31] = 0.5
        sums = self.run_exponents(tmp_path, cos, sin,
                                  "cocycle.dim = 2\nnumerics.n_max = 64\nnumerics.grid = 64\n")
        m, omega = 64, mp.mpf(cocycle.GOLDEN_MEAN)
        with mp.workdps(30):
            logs = [[mp.log(1 + mp.sin(2 * mp.pi * 32 * (mp.mpf(b) / m + j * omega)) / 2)
                     for j in range(1, 65)] for b in range(m)]
            assert sorted(sums) == [(0.0, n) for n in (1, 2, 4, 8, 16, 32, 64)]
            for (_, n), got in sums.items():
                want = mp.fsum(mp.fsum(row[:n]) for row in logs) / (m * n)
                assert abs(got - float(want)) <= 1e-12, n
        assert abs(sums[0.0, 1]) > 0.1  # the sum the construction grid cannot see

    def test_determinant_beyond_the_float_range_is_not_unit(self, golden):
        # 1e200 * 1e190 is not a float: construction still raises no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            constant_family(golden, np.diag([1e200, 1e190]))


class TestConstructionGrid:
    """Construction checks GL(d) on the ``CHECK_GRID`` phases only."""

    @pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                       reason="invertibility is sampled on the CHECK_GRID phases, "
                              "not certified between them")
    def test_determinant_vanishing_between_grid_phases_is_refused(self, golden):
        # det diag(1 + sin 2 pi 32 t, 1) is 1 at every t = b/64 and 0 at
        # t = 3/128 + k/32, so the family is not in GL(2) at every phase
        cos, sin = np.zeros((2, 2, 33)), np.zeros((2, 2, 32))
        cos[0, 0, 0] = cos[1, 1, 0] = 1.0
        sin[0, 0, 31] = 1.0
        with pytest.raises(ValidationError):
            TrigPolyFamily(base=golden, dim=2, cos_coeffs=cos, sin_coeffs=sin)


class TestConstantIsDegreeZero:
    """``cocycle.kind = constant`` is the degree-0 ``trig-poly`` family."""

    @pytest.mark.parametrize("E", [0.0, np.array([-1.0, 0.0, 2.5])])
    def test_evaluate_repeats_the_matrix_bit_for_bit(self, golden, E):
        m = np.array([[2.0, 0.3, -1.0], [0.1, 0.7, 0.0], [0.0, 0.2, 1.5]])
        zeta = grid_phasors(16)
        got = constant_family(golden, m).evaluate_batch(zeta, E)
        want = np.repeat(m[np.newaxis], np.size(E) * zeta.size, axis=0)
        assert np.array_equal(got, want)

    def test_constant_and_degree_zero_configs_write_the_same_rows(self, tmp_path):
        common = "cocycle.dim = 2\nnumerics.n_max = 32\nnumerics.grid = 8\n"
        rows = []
        for name, kind in (("c", "cocycle.kind = constant\ncocycle.entries = 2,1,0.5,3\n"),
                           ("t", "cocycle.kind = trig-poly\ncocycle.trig_degree = 0\n"
                                 "cocycle.trig_cos = 2,1,0.5,3\n")):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(kind + common)
            res = CliRunner().invoke(cli_main, ["exponents", "--config", str(cfg),
                                                "--out", str(tmp_path / name)])
            assert res.exit_code == 0, res.output
            lines = (tmp_path / name / "exponents.csv").read_text().splitlines()
            rows.append([l for l in lines if not l.startswith("#")])
        assert len(rows[0]) == 1 + 6 * 2 and rows[0] == rows[1]
