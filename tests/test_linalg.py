import ast
import warnings
from itertools import combinations
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from cocyclelab import linalg
from cocyclelab import random_products as rp
from cocyclelab.cocycle import (DEFAULT_OMEGA_2D, SchrodingerFamily, ShiftBase,
                                TrigPolyFamily, golden_base, grid_phasors)
from cocyclelab.errors import NumericalRefusal, ValidationError
from tests.families import constant_family

EPS = np.finfo(np.float64).eps


def charpoly_eigs(sym: np.ndarray) -> np.ndarray:
    """Independent eigenvalue oracle: Faddeev-LeVerrier characteristic
    polynomial coefficients, roots via the companion matrix."""
    d = sym.shape[0]
    coeffs = np.zeros(d + 1)
    coeffs[0] = 1.0
    m = np.zeros_like(sym)
    for k in range(1, d + 1):
        m = sym @ m + coeffs[k - 1] * np.eye(d)
        coeffs[k] = -np.trace(sym @ m) / k
    roots = np.roots(coeffs)
    return np.sort(np.real(roots))[::-1]


def exterior_power(m: np.ndarray, p: int) -> np.ndarray:
    """Minor-by-minor reference for ``compound_batch``: every ``p x p``
    minor of ``m``, rows and columns in the lexicographic subset basis."""
    basis = list(combinations(range(m.shape[0]), p))
    return np.array([[np.linalg.det(m[np.ix_(r, c)]) for c in basis] for r in basis])


def compound(m: np.ndarray, p: int) -> np.ndarray:
    """``compound_batch`` on a single matrix."""
    return linalg.compound_batch(m[np.newaxis], p)[0]


def power_iteration_norm(m: np.ndarray, iters: int = 2000) -> float:
    g = m.T @ m
    v = np.ones(m.shape[0]) / np.sqrt(m.shape[0])
    for _ in range(iters):
        w = g @ v
        v = w / np.linalg.norm(w)
    return float(np.sqrt(v @ g @ v))


def with_singular_values(sigma, n: int, seed: int) -> np.ndarray:
    """``n`` matrices ``U diag(sigma) V^T`` with random orthogonal ``U, V``."""
    rng = np.random.default_rng(seed)
    k = len(sigma)
    u = np.linalg.qr(rng.standard_normal((n, k, k)))[0]
    v = np.linalg.qr(rng.standard_normal((n, k, k)))[0]
    return u @ (np.asarray(sigma)[:, np.newaxis] * v.transpose(0, 2, 1))


def factor_stacks(k: int, lanes: int, n: int = 10) -> np.ndarray:
    """``n`` C-contiguous ``(lanes, k, k)`` factor stacks of an invertible
    random product."""
    rng = np.random.default_rng(100 + k)
    return rng.standard_normal((n, lanes, k, k)) + 2.0 * np.eye(k)


def producer(stacks):
    """The producer ``factor(j)`` of a sequence of factor stacks, step 1 first."""
    return lambda j: stacks[j - 1]


def sequential_scaled_product(stacks: np.ndarray, cps) -> np.ndarray:
    """Loop reference for ``scaled_product``: every entry of every step is
    ``sum_j f_ij p_jk``, one multiply then one add per ``j`` in order, and
    the renormalisation follows the documented rule."""
    n, lanes, k, _ = stacks.shape
    prod = stacks[0].copy()
    expo = np.zeros(lanes, dtype=np.int64)
    rows = []
    for step in range(1, n + 1):
        if step > 1:
            f, new = stacks[step - 1], np.empty_like(prod)
            for i, m in np.ndindex(k, k):
                acc = np.zeros(lanes)
                for j in range(k):
                    acc = acc + f[:, i, j] * prod[:, j, m]
                new[:, i, m] = acc
            prod = new
        fro2 = np.zeros(lanes)
        for i, j in np.ndindex(k, k):
            fro2 = fro2 + prod[:, i, j] * prod[:, i, j]
        e = np.frexp(np.sqrt(fro2))[1]
        prod = np.ldexp(prod, -e[:, np.newaxis, np.newaxis])
        expo += e
        if step in cps:
            rows.append(expo * np.log(2.0) + np.log(linalg.spectral_norm_batch(prod)))
    return np.array(rows)


class TestSvd:
    def test_diagonal(self):
        r = linalg.svd(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(r.singular_values, [3, 2, 1], atol=0)
        assert np.allclose(np.abs(r.right_factor), np.eye(3), atol=1e-15)

    def test_permuted_diagonal(self):
        r = linalg.svd(np.array([[0.0, 2.0], [1.0, 0.0]]))
        assert np.allclose(r.singular_values, [2.0, 1.0], atol=1e-15)

    def test_eigenvalue_oracle_4x4(self):
        rng = np.random.default_rng(101)
        m = rng.standard_normal((4, 4))
        sigma = linalg.svd(m).singular_values
        expected = charpoly_eigs(m.T @ m)
        assert np.allclose(sigma**2, expected, rtol=1e-10)

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("complex_field", [False, True])
    def test_reconstruction_and_orthonormality(self, seed, complex_field):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 7))
        m = rng.standard_normal((d, d))
        if complex_field:
            # svd refuses complex input; a complex X + iY enters through its
            # real form [[X, -Y], [Y, X]], which has each singular value twice
            z = m + 1j * rng.standard_normal((d, d))
            m = np.block([[z.real, -z.imag], [z.imag, z.real]])
            d *= 2
        r = linalg.svd(m)
        if complex_field:
            want = np.linalg.svd(z, compute_uv=False)
            assert np.allclose(r.singular_values, np.repeat(want, 2), rtol=1e-12, atol=0)
        s1 = r.singular_values[0]
        tol = d * EPS * max(s1, 1.0) * 32
        assert np.all(np.diff(r.singular_values) <= 0)
        assert np.all(r.singular_values >= 0)
        # the columns of M V are orthogonal with norms sigma, and V is orthogonal
        mv = m @ r.right_factor
        gram = mv.T @ mv
        assert np.max(np.abs(gram - np.diag(r.singular_values**2))) <= tol * max(s1, 1.0)
        eye = np.eye(d)
        assert np.max(np.abs(r.right_factor.T @ r.right_factor - eye)) <= tol

    def test_graded_matrix_relative_accuracy(self):
        m = np.diag([1e9, 1.0, 1e-9])
        r = linalg.svd(m)
        assert np.allclose(r.singular_values, [1e9, 1.0, 1e-9], rtol=1e-13)

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((5, 5))
        r1 = linalg.svd(m)
        r2 = linalg.svd(m)
        assert r1.singular_values.tobytes() == r2.singular_values.tobytes()
        assert r1.right_factor.tobytes() == r2.right_factor.tobytes()

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            linalg.svd(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(ValidationError):
            linalg.svd(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_rejects_complex(self):
        with pytest.raises(ValidationError, match="real"):
            linalg.svd(np.eye(2) + 1j * np.eye(2))
        with pytest.raises(ValidationError, match="real"):
            linalg.svd(np.eye(3, dtype=np.complex128))

    def test_rejects_non_square(self):
        for bad in (np.ones((2, 3)), np.ones(3), np.ones((0, 0))):
            with pytest.raises(ValidationError, match="square"):
                linalg.svd(bad)

    def test_zero_matrix(self):
        r = linalg.svd(np.zeros((3, 3)))
        assert np.all(r.singular_values == 0.0)
        assert np.array_equal(r.right_factor, np.eye(3))


def jacobi_stack(d: int) -> np.ndarray:
    """24 ``d x d`` matrices for the stacked Jacobi: near-diagonal lanes at
    scales 1e-3..1e3, some beyond 2^+-250, an exactly diagonal lane (one
    sweep), a nearly rank-one lane and a dense lane (the most sweeps)."""
    rng = np.random.default_rng(d)
    b = np.diag(rng.uniform(0.5, 2.0, d)) + 1e-3 * rng.standard_normal((24, d, d))
    b *= 10.0 ** rng.uniform(-3.0, 3.0, (24, 1, 1))
    b[::5] *= 2.0 ** 300
    b[2::7] *= 2.0 ** -400
    b[3] = np.diag(rng.uniform(0.5, 2.0, d))
    u, v = rng.standard_normal((2, d))
    b[6] = np.outer(u, v) + 1e-9 * rng.standard_normal((d, d))
    b[7] = rng.standard_normal((d, d))
    return b


def jacobi_sweeps(m, monkeypatch) -> int:
    """The sweeps ``linalg.svd`` needs on ``m``: the least ``_MAX_SWEEPS``
    that it does not refuse."""
    for k in range(1, linalg._MAX_SWEEPS + 1):
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_MAX_SWEEPS", k)
            try:
                linalg.svd(m, compute_uv=False)
                return k
            except NumericalRefusal:
                pass
    raise AssertionError("does not converge")


#: the running product of a certified d = 3 sequence (sequence 203 of
#: ``default_rng((2, 2))``, the benchmark's ``verify-cert-100``) at its 35th
#: step, where the Jacobi refuses: sigma_2 / sigma_1 is about 2e-19
JACOBI_REFUSAL = np.array([
    [4056764.9870802173, -111257.17093772074, -161566.27473557822],
    [176079.82145739312, -4829.006081682879, -7012.62234799854],
    [-86563.86272523816, 2374.022282021036, 3447.5255213895775],
])


class TestStackedSvd:
    """``linalg.svd`` on a stack sweeps the lanes together; each lane gets
    the bits of a stack of one, and so do the singular values alone of one
    matrix, swept in Python floats."""

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_stack_matches_one_matrix_at_a_time(self, d, monkeypatch):
        b = jacobi_stack(d)
        sweeps = [jacobi_sweeps(m, monkeypatch) for m in b]
        assert min(sweeps) == 1 and max(sweeps) > np.median(sweeps) >= 2
        r = linalg.svd(b)
        assert r.singular_values.shape == (24, d) and r.right_factor.shape == (24, d, d)
        for i, m in enumerate(b):
            one = linalg.svd(m)
            assert one.singular_values.tobytes() == r.singular_values[i].tobytes()
            assert one.right_factor.tobytes() == r.right_factor[i].tobytes()
        # compute_uv=False skips V and moves no bit of s; leading axes are kept
        assert linalg.svd(b, compute_uv=False).tobytes() == r.singular_values.tobytes()
        r4 = linalg.svd(b.reshape(4, 6, d, d))
        assert r4.singular_values.tobytes() == r.singular_values.tobytes()
        assert r4.right_factor.tobytes() == r.right_factor.tobytes()
        # lanes beyond 2^+-250 are scaled exactly
        assert np.array_equal(linalg.svd(b[3] * 2.0 ** 600).singular_values,
                              r.singular_values[3] * 2.0 ** 600)

    @pytest.mark.parametrize("compute_uv", [True, False])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_one_matrix_route_has_the_bits_of_a_stack_of_one(self, d, compute_uv):
        # one matrix's singular values come wholly from Python floats; with V
        # it runs as a stack of one
        rng = np.random.default_rng(100 + d)
        cases = []
        for i in range(48):
            m = rng.standard_normal((d, d))
            if i % 4 == 1:  # graded columns
                m *= 10.0 ** rng.uniform(-12.0, 12.0, d)
            elif i % 4 == 2:  # near rank one
                m = np.outer(*rng.standard_normal((2, d))) + 10.0 ** rng.uniform(-18, -6) * m
            if i % 3 == 0:  # beyond 2^+-250, scaled exactly
                m *= 2.0 ** rng.choice([-900, -400, 300, 700])
            cases.append(m)
        # a largest entry just below, at and just above 2^250, 2^-250 and
        # 2^-251: the edges of the scaled range (frexp exponents 250 / 251
        # and -250 / -251); in the graded copy a column near 2^-801 has
        # squares that underflow unless the matrix is scaled.  The sweeps may
        # never settle such a column, nor the zero row at d >= 3: these alone
        # may be refused, and then a stack of one must refuse them too
        may_refuse = []
        for k in (250, -250, -251):
            for top in (np.nextafter(2.0 ** k, 0.0), 2.0 ** k, np.nextafter(2.0 ** k, np.inf)):
                m = rng.uniform(-1.0, 1.0, (d, d)) * 2.0 ** (k - 1)
                m[0, 0] = -top
                graded = m.copy()
                graded[:, d - 1] *= 2.0 ** (-800 - k)
                cases.append(m)
                may_refuse.append(graded)
        # subnormal entries, whose exponent is clipped at -1022, alone and
        # beside a normal one
        tiny = rng.uniform(-1.0, 1.0, (d, d)) * 2.0 ** -1060
        cases += [tiny, tiny + np.diag(np.r_[2.0 ** -1000, np.zeros(d - 1)])]
        # a zero matrix, a zero column, a -0.0 row and -0.0 entries
        zero_col, zero_row, neg_zero = rng.standard_normal((3, d, d))
        zero_col[:, 1] = 0.0
        zero_row[0] = -0.0
        neg_zero[[0, d - 1], [d - 1, 0]] = -0.0
        cases += [np.zeros((d, d)), -np.zeros((d, d)), zero_col, neg_zero]
        may_refuse.append(zero_row)
        # tied singular values keep their column order in s and V
        cases += [np.eye(d), np.diag([2.0, 2.0, 1.0, 1.0, 1.0][:d]),
                  np.diag([1.0, 2.0, 2.0, 1.0, 1.0][:d]), 3.0 * np.eye(d)[::-1]]
        cases += [np.array([[-3.5]]), np.array([[-0.0]]), np.array([[5e-324]])]  # 1x1

        def assert_same_bits(m, one):
            stacked = linalg.svd(m[np.newaxis], compute_uv)
            if compute_uv:
                assert one.singular_values.tobytes() == stacked.singular_values[0].tobytes()
                assert one.right_factor.tobytes() == stacked.right_factor[0].tobytes()
            else:
                assert one.tobytes() == stacked[0].tobytes()

        for m in cases:
            assert_same_bits(m, linalg.svd(m, compute_uv))
        for m in may_refuse:
            try:
                one = linalg.svd(m, compute_uv)
            except NumericalRefusal:
                with pytest.raises(NumericalRefusal, match="failed to converge"):
                    linalg.svd(m[np.newaxis], compute_uv)
            else:
                assert_same_bits(m, one)
        for m in (JACOBI_REFUSAL, JACOBI_REFUSAL[np.newaxis]):
            with pytest.raises(NumericalRefusal, match="failed to converge"):
                linalg.svd(m, compute_uv)
        # one matrix is refused as a stack is, with the same messages
        for bad in (np.nan, np.inf, -np.inf):
            m = np.eye(d)
            m[d - 1, 0] = bad
            for a in (m, m[np.newaxis]):
                with pytest.raises(ValidationError, match="^matrix has non-finite entries$"):
                    linalg.svd(a, compute_uv)
        for a in (np.eye(d) + 0j, np.eye(d)[np.newaxis] + 0j):
            with pytest.raises(ValidationError, match="^svd takes real matrices$"):
                linalg.svd(a, compute_uv)

    @pytest.mark.parametrize("d", [1, 2, 3, 6])
    def test_reconstruction_and_orthonormality_on_a_stack(self, d):
        b = jacobi_stack(d) if d > 1 else np.linspace(-2.0, 3.0, 24).reshape(24, 1, 1)
        r = linalg.svd(b)
        assert np.all(np.diff(r.singular_values, axis=-1) <= 0)
        assert np.all(r.singular_values >= 0)
        want = np.linalg.svd(b, compute_uv=False)
        assert np.all(np.abs(r.singular_values - want) <= 1e-13 * want[:, :1])
        for m, s, v in zip(b, r.singular_values, r.right_factor):
            # the columns of M V are orthogonal with norms s, and V is orthogonal
            tol = d * EPS * 32
            mv = m @ v / s[0]
            assert np.max(np.abs(mv.T @ mv - np.diag((s / s[0]) ** 2))) <= tol
            assert np.max(np.abs(v.T @ v - np.eye(d))) <= tol

    def test_input_unchanged(self):
        m = np.array([[2.0, 1.0], [0.5, 1.0]])
        for a in (m, m[np.newaxis], np.stack([m, 3.0 * m])):
            before = a.copy()
            linalg.svd(a)
            assert np.array_equal(a, before)

    def test_refusal_without_warning(self):
        # tau overflows where |g| is subnormal; that is not a RuntimeWarning,
        # and the lane that does not converge refuses the whole stack
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in (JACOBI_REFUSAL, np.stack([np.eye(3), JACOBI_REFUSAL])):
                with pytest.raises(NumericalRefusal, match="failed to converge"):
                    linalg.svd(m, compute_uv=False)

    def test_stack_refusal_names_the_factor(self):
        b = np.stack([np.eye(2), np.diag([1.0, 1e-14]), np.zeros((2, 2))])
        with pytest.raises(NumericalRefusal, match="factor 1 is numerically singular"):
            linalg.require_invertible(b, context="factor")


class TestOperatorNorm:
    """The operator norm is ``spectral_norm_batch``, on one-matrix stacks here."""

    def test_identity(self):
        assert linalg.spectral_norm_batch(np.eye(4)[np.newaxis]).tolist() == [1.0]

    def test_diagonal(self):
        assert linalg.spectral_norm_batch(np.diag([2.0, 0.5])[np.newaxis]).tolist() == [2.0]

    def test_power_iteration_oracle(self):
        rng = np.random.default_rng(55)
        m = rng.standard_normal((5, 5))
        got = linalg.spectral_norm_batch(m[np.newaxis])[0]
        assert abs(got - power_iteration_norm(m)) <= 1e-10


class TestExteriorPower:
    def test_diagonal_minors(self):
        out = compound(np.diag([2.0, 3.0, 5.0]), 2)
        # basis {01, 02, 12}
        assert np.allclose(out, np.diag([6.0, 10.0, 15.0]))

    def test_top_power_is_determinant(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((4, 4))
        out = compound(m, 4)
        assert out.shape == (1, 1)
        assert abs(out[0, 0] - np.linalg.det(m)) <= 1e-12 * abs(np.linalg.det(m)) + 1e-14

    def test_minor_oracle_3x3(self):
        rng = np.random.default_rng(31)
        m = rng.standard_normal((3, 3))
        out = compound(m, 2)
        basis = ((0, 1), (0, 2), (1, 2))
        for i, rows in enumerate(basis):
            for j, cols in enumerate(basis):
                # explicit 2x2 minor, no det() call
                minor = (
                    m[rows[0], cols[0]] * m[rows[1], cols[1]]
                    - m[rows[0], cols[1]] * m[rows[1], cols[0]]
                )
                assert abs(out[i, j] - minor) <= 1e-13

    def test_order_out_of_range(self):
        with pytest.raises(ValidationError):
            compound(np.eye(3), 4)
        with pytest.raises(ValidationError):
            compound(np.eye(3), 0)

    def test_compound_index_lexicographic(self):
        # the minor in row i, column j sits at the position of the subsets
        # (0,1), (0,2), (0,3), (1,2), (1,3), (2,3) in this order
        m = np.random.default_rng(41).standard_normal((4, 4))
        out = compound(m, 2)
        basis = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        assert out.shape == (6, 6)
        for i, rows in enumerate(basis):
            for j, cols in enumerate(basis):
                assert abs(out[i, j] - np.linalg.det(m[np.ix_(rows, cols)])) <= 1e-13

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_functoriality(self, complex_field):
        rng = np.random.default_rng(77)
        for _ in range(40):
            d = int(rng.integers(2, 7))
            p = int(rng.integers(1, d + 1))
            a = rng.standard_normal((d, d))
            b = rng.standard_normal((d, d))
            if complex_field:
                a = a + 1j * rng.standard_normal((d, d))
                b = b + 1j * rng.standard_normal((d, d))
            lhs = compound(a @ b, p)
            rhs = compound(a, p) @ compound(b, p)
            scale = max(np.linalg.norm(lhs, 2), 1e-30)
            assert np.linalg.norm(lhs - rhs, 2) <= 1e-10 * scale

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_isometry_preserved(self, complex_field):
        rng = np.random.default_rng(13)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            p = int(rng.integers(1, d + 1))
            m = rng.standard_normal((d, d))
            if complex_field:
                m = m + 1j * rng.standard_normal((d, d))
            v = np.linalg.qr(m)[0]  # orthogonal, or unitary
            assert abs(np.linalg.norm(compound(v, p), 2) - 1.0) <= 1e-12

    def test_norm_equals_singular_value_product(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            d = int(rng.integers(2, 7))
            p = int(rng.integers(1, d + 1))
            m = rng.standard_normal((d, d))
            sigma = np.linalg.svd(m, compute_uv=False)
            expected = float(np.prod(sigma[:p]))
            got = np.linalg.norm(compound(m, p), 2)
            assert abs(got - expected) <= 1e-10 * max(expected, 1e-30)


class TestInvertibility:
    def test_marker_matches_conditioning(self):
        m = np.diag([1.0, 1e-10])
        res = linalg.require_invertible(m)
        # the SVD it tested is returned, so callers need not decompose again
        assert np.array_equal(res.singular_values, linalg.svd(m).singular_values)
        for singular in (np.diag([1.0, 1e-14]), np.zeros((2, 2))):
            with pytest.raises(NumericalRefusal, match="numerically singular"):
                linalg.require_invertible(singular)

    def test_require_invertible_message(self):
        with pytest.raises(NumericalRefusal, match="factor 0"):
            linalg.require_invertible(np.zeros((2, 2)), context="factor 0")

    @pytest.mark.parametrize("sigma", [(1e200, 1e190), (1e-200, 1e-210)])
    def test_column_norms_beyond_square_range(self, sigma):
        # sigma_2 / sigma_1 = 1e-10 is well conditioned, though every
        # squared column norm leaves the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = linalg.require_invertible(np.diag(sigma))
        assert tuple(res.singular_values) == sigma


    @pytest.mark.parametrize("compute_uv", [True, False])
    @pytest.mark.parametrize("route", ["one-matrix", "stack"])
    def test_singular_values_beyond_the_float_range_are_refused(self, route, compute_uv):
        # finite entries, but sigma_1 ~ 2.4e308 leaves the float range; the
        # refusal says so, names the matrix of a stack (big is matrix 1, or
        # matrix 0 of the stack of one that one matrix with V runs as), and
        # no overflow warning precedes it
        big, edge = np.array([[1.7e308, 1.7e308], [0.0, 1.0]]), np.diag([1.7e308, 1e200])
        shape = (lambda m: m) if route == "one-matrix" else (lambda m: np.stack([np.eye(2), m]))
        index = 1 if route == "stack" else 0 if compute_uv else None
        which = "$" if index is None else f", matrix {index}$"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalRefusal,
                               match="singular value beyond the float range" + which) as info:
                linalg.svd(shape(big), compute_uv=compute_uv)
            assert getattr(info.value, "matrix", None) == index
            with pytest.raises(NumericalRefusal,
                               match=f"beyond the float range, matrix {index or 0}$"):
                linalg.require_invertible(shape(big), context="factor")
            got = linalg.svd(shape(edge), compute_uv=compute_uv)
        s = got.singular_values if compute_uv else got
        assert s.reshape(-1, 2)[-1].tolist() == [1.7e308, 1e200]

    def test_rule_on_extreme_singular_values(self):
        top = np.array([1.0, 1.0, 1.0, 0.0, 1e-305, 1e200])
        low = np.array([1e-10, 1e-13, 0.0, 0.0, 1e-310, 1e190])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert linalg.invertible(top, low).tolist() == [True, False, False, False, True, True]
            assert linalg.invertible(2.0, 1.0) and not linalg.invertible(0.0, 0.0)

    def test_one_rule_for_families_supports_and_ap_factors(self, monkeypatch):
        calls = []
        real = linalg.invertible
        monkeypatch.setattr(linalg, "invertible",
                            lambda top, low: calls.append(1) or real(top, low))
        constant_family(golden_base(), np.diag([2.0, 0.5]))
        assert calls
        calls.clear()
        rp.single_matrix(np.diag([2.0, 0.5]))
        assert calls
        calls.clear()
        linalg.require_invertible(np.diag([2.0, 0.5]))
        assert calls


class TestScalarSvdConfinement:
    """The scalar Jacobi SVD serves the avalanche-principle checker alone."""

    def test_no_other_module_calls_it(self):
        src = Path(linalg.__file__).parent
        callers = set()
        for path in src.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and node.attr in ("svd", "require_invertible"):
                    if isinstance(node.value, ast.Name) and node.value.id == "linalg":
                        callers.add(path.name)
                if isinstance(node, ast.ImportFrom) and any(
                        a.name in ("svd", "require_invertible") for a in node.names):
                    callers.add(path.name)
        assert callers == {"avalanche.py"}

    def test_construction_and_kernels_make_no_scalar_svd(self, monkeypatch):
        def scalar_svd(*args, **kwargs):
            raise AssertionError("scalar Jacobi SVD outside the AP checker")

        monkeypatch.setattr(linalg, "svd", scalar_svd)
        monkeypatch.setattr(linalg, "require_invertible", scalar_svd)
        fam = SchrodingerFamily(base=golden_base(), dim=2, coupling=3.0)
        base = ShiftBase(omega=DEFAULT_OMEGA_2D)
        fam3 = TrigPolyFamily(base=base, dim=3,
                              cos_coeffs=np.eye(3)[..., np.newaxis] * [2.0, 0.5],
                              sin_coeffs=np.ones((3, 3, 1)) * 0.3)
        assert np.all(np.isfinite(fam.orbit_lognorms(0.0, grid_phasors(8), 16)))
        assert np.all(np.isfinite(fam3.orbit_lognorms(0.0, grid_phasors(4), 16, p=2)))
        for dim in (2, 3):
            dist = rp.MatrixDistribution(dim=dim, seed=1, support=(
                (2.0 * np.eye(dim), 0.5), (np.triu(np.ones((dim, dim))), 0.5)))
            assert np.all(np.isfinite(rp._batched_lognorms(dist, 16, range(4))))


class TestBatchHelpers:
    def test_spectral_norm_batch_matches_svd(self):
        rng = np.random.default_rng(2)
        for d in (1, 2, 3, 5):
            b = rng.standard_normal((9, d, d))
            got = linalg.spectral_norm_batch(b)
            want = [np.linalg.svd(x, compute_uv=False)[0] for x in b]
            assert np.allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("k", [6, 10])
    def test_spectral_norm_lapack_route_matches_gram_jacobi(self, k, monkeypatch):
        # from k = 6 on the stack goes to LAPACK; the Gram Jacobi still agrees
        b = np.random.default_rng(k).standard_normal((64, k, k)) * np.logspace(-3, 3, k)
        calls = []
        real = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        got = linalg.spectral_norm_batch(b)
        assert calls == [1]  # one call over the whole stack
        assert np.array_equal(got, [real(m, compute_uv=False)[0] for m in b])
        monkeypatch.setattr(linalg, "_LAPACK_FROM", 99)
        jacobi = linalg.spectral_norm_batch(b)
        assert calls == [1] and np.max(np.abs(got - jacobi) / jacobi) <= 1e-13

    def test_spectral_norm_2x2_exact_on_rotations(self):
        # sigma_1 = sigma_2 = 1: the case where a closed form through
        # sqrt(fro^4 - 4 det^2) loses half the digits
        theta = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, 10000)
        c, s = np.cos(theta), np.sin(theta)
        rots = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
        assert np.max(np.abs(linalg.spectral_norm_batch(rots) - 1.0)) <= 4 * EPS

    def test_spectral_norm_2x2_beyond_square_range(self):
        big = np.array([[1e200, 3e199], [-2e199, 5e199]])
        b = np.stack([big, big * 1e-300 * 1e-100, np.eye(2)])  # entries near 1e200, 1e-200, 1
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = linalg.spectral_norm_batch(b)
        want = np.array([np.linalg.norm(m, 2) for m in b])
        assert np.max(np.abs(got - want) / want) <= 1e-15

    def test_spectral_norm_2x2_prescale_moves_no_bits(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((8192, 2, 2)) * np.exp(rng.uniform(-30, 30, (8192, 1, 1)))
        p, q, r, s = b[:, 0, 0], b[:, 0, 1], b[:, 1, 0], b[:, 1, 1]
        plain = 0.5 * (np.sqrt((p + s) ** 2 + (q - r) ** 2) + np.sqrt((p - s) ** 2 + (q + r) ** 2))
        assert (linalg.spectral_norm_batch(b) == plain).all()
        top, low = linalg.extreme_singular_values_batch(b)
        assert (top == plain).all()
        assert (low == np.abs(p * s - q * r) / plain).all()

    @pytest.mark.parametrize("sigma", [(1.0, 1.0, 1e-12), (1.0, 1.0 - 1e-9, 0.5),
                                       (1.0, 1e-8, 1e-16)])
    def test_spectral_norm_3x3_matches_lapack(self, sigma):
        # sigma_1 ~ sigma_2 in the first two: the trigonometric root of the
        # characteristic cubic errs there by ~2e7 units; then a graded spectrum
        b = with_singular_values(sigma, 2000, seed=7)
        want = np.linalg.svd(b, compute_uv=False)[:, 0]
        assert np.max(np.abs(linalg.spectral_norm_batch(b) - want) / want) <= 8 * EPS

    def test_spectral_norm_3x3_on_orthogonal_matrices(self):
        q = np.linalg.qr(np.random.default_rng(21).standard_normal((20000, 3, 3)))[0]
        assert np.max(np.abs(linalg.spectral_norm_batch(q) - 1.0)) <= 4 * EPS

    @pytest.mark.parametrize("d", [3, 4, 6])
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_spectral_norm_beyond_square_range(self, d, scale):
        b = with_singular_values(np.linspace(3.0, 0.5, d), 50, seed=d) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = linalg.spectral_norm_batch(b)
        want = np.linalg.svd(b, compute_uv=False)[:, 0]
        assert np.max(np.abs(got - want) / want) <= 8 * EPS

    def test_spectral_norm_of_zero_is_zero(self):
        # a zero lane has zero Gram trace and no top entry to scale by; it
        # must read 0, not NaN, next to a nonzero lane
        b = np.zeros((3, 3, 3))
        b[1] = np.diag([0.0, 2.0, 0.0])
        assert linalg.spectral_norm_batch(b).tolist() == [0.0, 2.0, 0.0]

    def test_spectral_norm_unconverged_lane_is_refused(self, monkeypatch):
        monkeypatch.setattr(linalg, "_GRAM_SWEEPS", 1)
        with pytest.raises(NumericalRefusal, match="did not converge"):
            linalg.spectral_norm_batch(np.random.default_rng(3).standard_normal((4, 3, 3)))

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_det_3x3_matches_lapack_and_mpmath(self, complex_field):
        rng = np.random.default_rng(8)
        scale = np.exp(rng.uniform(-200.0, 200.0, (300, 1, 1)))
        b = rng.standard_normal((300, 3, 3)) * scale
        if complex_field:
            b = b + 1j * rng.standard_normal((300, 3, 3)) * scale
        got = linalg.det_batch(b)
        hadamard = np.prod(np.linalg.norm(b, axis=2), axis=1)  # >= |det|
        with mp.workdps(50):
            exact = np.array([complex(mp.det(mp.matrix(m.tolist()))) for m in b])
        assert np.max(np.abs(got - exact) / hadamard) <= 4 * EPS
        # NumPy's det is sign * exp(log|det|), which costs it up to |log|det|| units
        assert np.max(np.abs(got - np.linalg.det(b)) / hadamard) <= 1e-12

    def test_extreme_singular_values(self):
        rng = np.random.default_rng(4)
        for d in (1, 2, 4):
            b = rng.standard_normal((7, d, d))
            top, low = linalg.extreme_singular_values_batch(b)
            sv = np.array([np.linalg.svd(x, compute_uv=False) for x in b])
            assert np.allclose(top, sv[:, 0], rtol=1e-11)
            assert np.allclose(low, sv[:, -1], rtol=1e-9, atol=1e-13)

    @pytest.mark.parametrize("sigma", [(1e200, 1e190), (1e-190, 1e-200)])
    def test_extreme_singular_values_2x2_beyond_square_range(self, sigma):
        # the determinant is formed from the scaled entries, so it stays in range
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            top, low = linalg.extreme_singular_values_batch(np.diag(sigma)[np.newaxis])
        assert (top[0], low[0]) == sigma

    def test_compound_batch_matches_single(self):
        rng = np.random.default_rng(6)
        b = rng.standard_normal((5, 4, 4))
        for p in (1, 2, 3, 4):
            got = linalg.compound_batch(b, p)
            for i in range(5):
                assert np.allclose(got[i], exterior_power(b[i], p), atol=1e-12)

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_compound_minors_of_order_3_through_det_batch(self, complex_field, monkeypatch):
        # p = 3 < d: every minor comes from the scaled cofactor expansion of
        # det_batch, on a lanes-last stack, with no LAPACK determinant
        rng = np.random.default_rng(8)
        stacks = {}
        for d in (4, 5, 6):
            b = rng.standard_normal((d, d, 7))
            if complex_field:
                b = b + 1j * rng.standard_normal((d, d, 7))
            stacks[d] = b.transpose(2, 0, 1)
        want = {d: np.array([exterior_power(m, 3) for m in b]) for d, b in stacks.items()}

        def no_det(*args, **kwargs):
            raise AssertionError("LAPACK determinant for a p = 3 minor")

        monkeypatch.setattr(np.linalg, "det", no_det)
        for d, b in stacks.items():
            got = linalg.compound_batch(b, 3)
            scale = np.max(np.abs(want[d]), axis=(1, 2), keepdims=True)
            assert np.max(np.abs(got - want[d]) / scale) <= 8 * EPS
            assert got.dtype == b.dtype


class TestScaledProduct:
    def test_matches_assembled_product_at_checkpoints(self):
        rng = np.random.default_rng(12)
        stacks = rng.standard_normal((6, 4, 3, 3)) + 2.0 * np.eye(3)
        logs = linalg.scaled_product(producer(stacks), 6, checkpoints=(2, 5, 6))
        assert logs.shape == (3, 4)
        for row, c in zip(logs, (2, 5, 6)):
            for b in range(4):
                full = np.eye(3)
                for f in stacks[:c, b]:
                    full = f @ full
                want = np.log(np.linalg.norm(full, 2))
                assert abs(row[b] - want) <= 1e-12 * max(1.0, abs(want))

    def test_callers_arrays_unchanged(self):
        rng = np.random.default_rng(13)
        stacks = [rng.standard_normal((2, 2, 2)) for _ in range(3)]
        before = [s.copy() for s in stacks]
        linalg.scaled_product(producer(stacks), 3)
        assert all(np.array_equal(a, b) for a, b in zip(stacks, before))

    @pytest.mark.parametrize("cps", [(2, 1, 3), (1, 2), (0, 3), (2, 2, 3), (1, 4)])
    def test_bad_checkpoints_rejected(self, cps):
        stacks = np.broadcast_to(np.eye(2), (3, 1, 2, 2))
        with pytest.raises(ValidationError, match="checkpoints"):
            linalg.scaled_product(producer(stacks), 3, checkpoints=cps)

    def test_length_validated(self):
        with pytest.raises(ValidationError):
            linalg.scaled_product(producer([]), 0)

    def test_zero_stack_refused(self):
        stacks = [np.eye(2)[np.newaxis], np.zeros((1, 2, 2))]
        with pytest.raises(NumericalRefusal, match="step 2"):
            linalg.scaled_product(producer(stacks), 2)

    def test_refusal_names_first_refused_matrix(self):
        stacks = [np.stack([np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))])]
        with pytest.raises(NumericalRefusal, match="step 1, matrix 1") as info:
            linalg.scaled_product(producer(stacks), 1)
        assert info.value.matrix == 1

    @pytest.mark.parametrize("factor, sign", [(np.diag([1e3, 1e-3]), 1.0), (1e-3 * np.eye(3), -1.0)])
    def test_products_beyond_float_range(self, factor, sign):
        # the product norms reach 1e+-9000, far outside the float64 range
        cps = (1, 2, 10, 100, 1000, 2999, 3000)
        logs = linalg.scaled_product(lambda j: factor[np.newaxis], 3000, cps)
        for row, c in zip(logs, cps):
            want = sign * c * np.log(1e3)
            assert abs(row[0] - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("bad", [0.0, np.nan])
    def test_degenerate_factor_refused_at_its_step(self, bad):
        ones = [np.eye(2)[np.newaxis]] * 4
        stacks = ones + [np.full((1, 2, 2), bad)] + ones
        with pytest.raises(NumericalRefusal, match="step 5"):
            linalg.scaled_product(producer(stacks), 9, checkpoints=(2, 9))

    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_lanes_and_chunks_move_no_bits(self, k):
        stacks = factor_stacks(k, lanes=37)
        cps = (1, 4, 9, 10)
        whole = linalg.scaled_product(producer(stacks), 10, cps)
        per_lane = np.concatenate(
            [linalg.scaled_product(producer(stacks[:, b:b + 1]), 10, cps) for b in range(37)],
            axis=1)
        chunks = np.concatenate(
            [linalg.scaled_product(producer(stacks[:, b:b + 7]), 10, cps)
             for b in range(0, 37, 7)], axis=1)
        assert np.array_equal(per_lane, whole)
        assert np.array_equal(chunks, whole)
        # a wide stack, and chunks of a half, a quarter and an eighth of it,
        # run the same blocks and get the bits of scaling after every step
        lanes = 1 << 14
        wide = factor_stacks(k, lanes=lanes, n=20)
        cps = (1, 4, 9, 17, 20)
        whole = linalg.scaled_product(producer(wide), 20, cps)
        assert np.array_equal(whole, sequential_scaled_product(wide, cps))
        for width in (lanes // 2, lanes // 4, lanes // 8):
            chunks = np.concatenate(
                [linalg.scaled_product(producer(wide[:, b:b + width]), 20, cps)
                 for b in range(0, lanes, width)], axis=1)
            assert np.array_equal(chunks, whole)

    @pytest.mark.parametrize("lanes", [1, 1 << 14])
    def test_producer_called_once_per_step(self, lanes, monkeypatch):
        # three blocks (8, 8 and 4 steps) in range: no step is asked for twice
        stacks = factor_stacks(2, lanes=lanes, n=20)
        asked, rescales = [], []
        real = linalg._rescale
        monkeypatch.setattr(linalg, "_rescale", lambda *a: rescales.append(a[1]) or real(*a))
        got = linalg.scaled_product(lambda j: asked.append(j) or stacks[j - 1], 20, (20,))
        assert asked == list(range(1, 21))
        assert len(rescales) == 3
        assert np.array_equal(got, sequential_scaled_product(stacks, (20,)))

    def test_block_out_of_range_is_replayed_step_by_step(self):
        # factors of norm ~2^351: one step's squared norm stays in range, and
        # three steps' entries overflow
        stacks = factor_stacks(2, lanes=5, n=20) * 2.0**350
        cps = (3, 8, 13, 20)
        asked = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = linalg.scaled_product(lambda j: asked.append(j) or stacks[j - 1], 20, cps)
        assert np.array_equal(got, sequential_scaled_product(stacks, cps))
        # every block (3, 5, 5 and 7 steps) overflows and asks again for its steps
        blocks = [range(1, 4), range(4, 9), range(9, 14), range(14, 21)]
        assert asked == [j for steps in blocks for j in [*steps, *steps]]
        assert len(asked) == 20 + 3 + 5 + 5 + 7
        assert np.all(got[-1] > 20 * 350 * np.log(2.0))

    @pytest.mark.parametrize("scale, cps", [(2.0**300, (2, 5, 8, 10)), (2.0**-66, (8, 10))],
                             ids=["square-overflows", "square-subnormal"])
    def test_block_with_square_out_of_range_is_not_replayed(self, scale, cps):
        # the blocks end with finite entries, the largest a normal float, and
        # a squared norm that overflows (2^300: 2 or 3 steps) or is subnormal
        # (2^-66: 8 steps); the exponent comes from the entries
        stacks = factor_stacks(2, lanes=5, n=10) * scale
        asked = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = linalg.scaled_product(lambda j: asked.append(j) or stacks[j - 1], 10, cps)
        assert asked == list(range(1, 11))
        assert np.array_equal(got, sequential_scaled_product(stacks, cps))

    def test_block_ending_subnormal_is_replayed_step_by_step(self):
        # eight steps of 2^-130 (1 - 2^-25) end with a subnormal entry, which
        # has lost bits that scaling after every step keeps
        stacks = np.full((16, 3, 1, 1), 2.0**-130 * (1.0 - 2.0**-25))
        cps = (8, 16)
        asked = []
        got = linalg.scaled_product(lambda j: asked.append(j) or stacks[j - 1], 16, cps)
        assert asked == [j for steps in (range(1, 9), range(9, 17)) for j in [*steps, *steps]]
        assert np.array_equal(got, sequential_scaled_product(stacks, cps))

    def test_factor_beyond_1e154_accepted_at_every_block_layout(self):
        # 1e200 times a rotation, and 1e200 itself: finite, well-conditioned
        # entries whose squared norm overflows; no checkpoints refuse them
        c, s = np.cos(0.3), np.sin(0.3)
        big, undo = np.diag([1e160, 1e-160]), np.diag([1e-160, 1e160])
        for lanes in (1, 1 << 14):
            for f in (1e200 * np.array([[c, -s], [s, c]]), np.full((1, 1), 1e200)):
                stacks = np.broadcast_to(f, (3, lanes) + f.shape)
                for cps in ((3,), (1, 3), (1, 2, 3)):
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        got = linalg.scaled_product(producer(stacks), 3, cps)
                    want = np.array(cps)[:, np.newaxis] * np.log(1e200)
                    assert np.max(np.abs(got - want) / want) <= 1e-15, (f.shape, cps)
            # such a factor then its inverse: exact at (2,); a checkpoint at
            # step 1 scales diag(1e160, 1e-160) to norm ~1, where 1e-160 becomes
            # a subnormal ~1e-320 with few bits left, so step 2 reads about
            # 2.4e-4, not 0: a float limit, not a refusal
            stacks = np.broadcast_to(np.stack([big, undo])[:, np.newaxis], (2, lanes, 2, 2))
            assert np.array_equal(linalg.scaled_product(producer(stacks), 2),
                                  np.zeros((1, lanes)))
            got = linalg.scaled_product(producer(stacks), 2, (1, 2))
            assert np.max(np.abs(got[0] - np.log(1e160))) <= 1e-15 * np.log(1e160)
            assert np.all(np.abs(got[1]) < 1e-3)

    @pytest.mark.parametrize("bad", [0.0, np.nan])
    def test_degenerate_factor_inside_a_block_refused_at_its_step(self, bad):
        stacks = factor_stacks(2, lanes=4, n=20)
        stacks[10, 2] = bad
        with pytest.raises(NumericalRefusal, match="step 11, matrix 2") as info:
            linalg.scaled_product(producer(stacks), 20)
        assert info.value.matrix == 2

    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_multiply_is_sequential_multiply_add(self, k):
        stacks = factor_stacks(k, lanes=37)
        cps = (1, 2, 7, 10)
        assert np.array_equal(linalg.scaled_product(producer(stacks), 10, cps),
                              sequential_scaled_product(stacks, cps))

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_layout_moves_no_bits(self, k):
        stacks = factor_stacks(k, lanes=37)
        lanes_last = [np.ascontiguousarray(s.transpose(1, 2, 0)).transpose(2, 0, 1)
                      for s in stacks]
        assert all(s.flags.c_contiguous for s in stacks)
        assert not any(s.flags.c_contiguous for s in lanes_last)
        assert np.array_equal(linalg.scaled_product(producer(stacks), 10, (3, 10)),
                              linalg.scaled_product(producer(lanes_last), 10, (3, 10)))

    def test_spectral_norm_taken_only_at_checkpoints(self, monkeypatch):
        calls = []
        real = linalg.spectral_norm_batch
        monkeypatch.setattr(linalg, "spectral_norm_batch", lambda b: calls.append(1) or real(b))
        stacks = np.random.default_rng(14).standard_normal((40, 5, 3, 3))
        for cps in ((40,), (1, 8, 40), tuple(range(1, 41))):
            calls.clear()
            linalg.scaled_product(producer(stacks), 40, checkpoints=cps)
            assert len(calls) == len(cps)


class TestLogDetSum:
    """``sum_j log |det F_j|``, the top compound order, read off
    ``scaled_product`` over the 1x1 stacks of ``compound_batch(F_j, d)``."""

    @staticmethod
    def top_order(stacks, n, cps=None):
        d = stacks[0].shape[-1]
        return linalg.scaled_product(lambda j: linalg.compound_batch(stacks[j - 1], d), n, cps)

    def test_matches_lapack_log_determinants(self):
        stacks = factor_stacks(3, lanes=9, n=12)
        cps = (1, 5, 12)
        got = self.top_order(stacks, 12, cps)
        assert got.shape == (3, 9)
        logs = np.cumsum(np.log(np.abs(np.linalg.det(stacks))), axis=0)
        for row, c in zip(got, cps):
            assert np.max(np.abs(row - logs[c - 1])) <= 1e-13 * c

    def test_unit_determinant_sums_to_exact_zero(self):
        v = np.random.default_rng(3).uniform(-6.0, 6.0, (50, 7))
        stacks = np.zeros((50, 7, 2, 2))
        stacks[..., 0, 0], stacks[..., 0, 1], stacks[..., 1, 0] = v, -1.0, 1.0
        assert np.array_equal(self.top_order(stacks, 50, (10, 50)), np.zeros((2, 7)))

    @pytest.mark.parametrize("bad", [0.0, np.inf, np.nan])
    def test_degenerate_determinant_refused_at_its_step(self, bad):
        stacks = np.broadcast_to(np.eye(2), (4, 3, 2, 2)).copy()
        stacks[2, 1] = np.diag([1.0, bad])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalRefusal, match="step 3, matrix 1") as info:
                self.top_order(stacks, 4)
        assert info.value.matrix == 1
