from itertools import combinations

import numpy as np
import pytest

from cocyclelab import linalg
from cocyclelab.errors import NumericalRefusal, ValidationError

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


def factor_stacks(k: int, lanes: int, n: int = 10) -> np.ndarray:
    """``n`` C-contiguous ``(lanes, k, k)`` factor stacks of an invertible
    random product."""
    rng = np.random.default_rng(100 + k)
    return rng.standard_normal((n, lanes, k, k)) + 2.0 * np.eye(k)


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
            m = m + 1j * rng.standard_normal((d, d))
        r = linalg.svd(m)
        s1 = r.singular_values[0]
        tol = d * EPS * max(s1, 1.0) * 32
        assert np.all(np.diff(r.singular_values) <= 0)
        assert np.all(r.singular_values >= 0)
        # the columns of M V are orthogonal with norms sigma, and V is unitary
        mv = m @ r.right_factor
        gram = mv.conj().T @ mv
        assert np.max(np.abs(gram - np.diag(r.singular_values**2))) <= tol * max(s1, 1.0)
        eye = np.eye(d)
        assert np.max(np.abs(r.right_factor.conj().T @ r.right_factor - eye)) <= tol

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

    def test_zero_matrix(self):
        r = linalg.svd(np.zeros((3, 3)))
        assert np.all(r.singular_values == 0.0)
        assert np.array_equal(r.right_factor, np.eye(3))


class TestOperatorNorm:
    def test_identity(self):
        assert linalg.operator_norm(np.eye(4)) == 1.0

    def test_diagonal(self):
        assert linalg.operator_norm(np.diag([2.0, 0.5])) == 2.0

    def test_power_iteration_oracle(self):
        rng = np.random.default_rng(55)
        m = rng.standard_normal((5, 5))
        assert abs(linalg.operator_norm(m) - power_iteration_norm(m)) <= 1e-10


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
            scale = max(linalg.operator_norm(lhs), 1e-30)
            assert linalg.operator_norm(lhs - rhs) <= 1e-10 * scale

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_isometry_preserved(self, complex_field):
        rng = np.random.default_rng(13)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            p = int(rng.integers(1, d + 1))
            m = rng.standard_normal((d, d))
            if complex_field:
                m = m + 1j * rng.standard_normal((d, d))
            v = linalg.svd(m).right_factor
            assert abs(linalg.operator_norm(compound(v, p)) - 1.0) <= 1e-12

    def test_norm_equals_singular_value_product(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            d = int(rng.integers(2, 7))
            p = int(rng.integers(1, d + 1))
            m = rng.standard_normal((d, d))
            sigma = linalg.svd(m).singular_values
            expected = float(np.prod(sigma[:p]))
            got = linalg.operator_norm(compound(m, p))
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


class TestBatchHelpers:
    def test_spectral_norm_batch_matches_svd(self):
        rng = np.random.default_rng(2)
        for d in (1, 2, 3, 5):
            b = rng.standard_normal((9, d, d))
            got = linalg.spectral_norm_batch(b)
            want = [np.linalg.svd(x, compute_uv=False)[0] for x in b]
            assert np.allclose(got, want, rtol=1e-12)

    def test_spectral_norm_2x2_exact_on_rotations(self):
        # sigma_1 = sigma_2 = 1: the case where a closed form through
        # sqrt(fro^4 - 4 det^2) loses half the digits
        theta = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, 10000)
        c, s = np.cos(theta), np.sin(theta)
        rots = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
        assert np.max(np.abs(linalg.spectral_norm_batch(rots) - 1.0)) <= 4 * EPS

    def test_extreme_singular_values(self):
        rng = np.random.default_rng(4)
        for d in (1, 2, 4):
            b = rng.standard_normal((7, d, d))
            top, low = linalg.extreme_singular_values_batch(b)
            sv = np.array([np.linalg.svd(x, compute_uv=False) for x in b])
            assert np.allclose(top, sv[:, 0], rtol=1e-11)
            assert np.allclose(low, sv[:, -1], rtol=1e-9, atol=1e-13)

    def test_compound_batch_matches_single(self):
        rng = np.random.default_rng(6)
        b = rng.standard_normal((5, 4, 4))
        for p in (1, 2, 3, 4):
            got = linalg.compound_batch(b, p)
            for i in range(5):
                assert np.allclose(got[i], exterior_power(b[i], p), atol=1e-12)


class TestScaledProduct:
    def test_matches_assembled_product_at_checkpoints(self):
        rng = np.random.default_rng(12)
        stacks = rng.standard_normal((6, 4, 3, 3)) + 2.0 * np.eye(3)
        logs = linalg.scaled_product(iter(stacks), 6, checkpoints=(2, 5, 6))
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
        linalg.scaled_product(stacks, 3)
        assert all(np.array_equal(a, b) for a, b in zip(stacks, before))

    @pytest.mark.parametrize("cps", [(2, 1, 3), (1, 2), (0, 3), (2, 2, 3), (1, 4)])
    def test_bad_checkpoints_rejected(self, cps):
        stacks = np.broadcast_to(np.eye(2), (3, 1, 2, 2))
        with pytest.raises(ValidationError, match="checkpoints"):
            linalg.scaled_product(stacks, 3, checkpoints=cps)

    def test_length_validated(self):
        with pytest.raises(ValidationError):
            linalg.scaled_product([], 0)
        with pytest.raises(ValidationError, match="factor stacks"):
            linalg.scaled_product([np.eye(2)[np.newaxis]], 2)

    def test_zero_stack_refused(self):
        stacks = [np.eye(2)[np.newaxis], np.zeros((1, 2, 2))]
        with pytest.raises(NumericalRefusal, match="step 2"):
            linalg.scaled_product(stacks, 2)

    def test_refusal_names_first_refused_matrix(self):
        stacks = [np.stack([np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))])]
        with pytest.raises(NumericalRefusal, match="step 1, matrix 1") as info:
            linalg.scaled_product(stacks, 1)
        assert info.value.matrix == 1

    @pytest.mark.parametrize("factor, sign", [(np.diag([1e3, 1e-3]), 1.0), (1e-3 * np.eye(3), -1.0)])
    def test_products_beyond_float_range(self, factor, sign):
        # the product norms reach 1e+-9000, far outside the float64 range
        cps = (1, 2, 10, 100, 1000, 2999, 3000)
        logs = linalg.scaled_product((factor[np.newaxis] for _ in range(3000)), 3000, cps)
        for row, c in zip(logs, cps):
            want = sign * c * np.log(1e3)
            assert abs(row[0] - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("bad", [0.0, np.nan])
    def test_degenerate_factor_refused_at_its_step(self, bad):
        ones = [np.eye(2)[np.newaxis]] * 4
        stacks = ones + [np.full((1, 2, 2), bad)] + ones
        with pytest.raises(NumericalRefusal, match="step 5"):
            linalg.scaled_product(stacks, 9, checkpoints=(2, 9))

    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_lanes_and_chunks_move_no_bits(self, k):
        stacks = factor_stacks(k, lanes=37)
        cps = (1, 4, 9, 10)
        whole = linalg.scaled_product(iter(stacks), 10, cps)
        per_lane = np.concatenate(
            [linalg.scaled_product(iter(stacks[:, b:b + 1]), 10, cps) for b in range(37)], axis=1)
        chunks = np.concatenate(
            [linalg.scaled_product(iter(stacks[:, b:b + 7]), 10, cps) for b in range(0, 37, 7)],
            axis=1)
        assert np.array_equal(per_lane, whole)
        assert np.array_equal(chunks, whole)

    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_multiply_is_sequential_multiply_add(self, k):
        stacks = factor_stacks(k, lanes=37)
        cps = (1, 2, 7, 10)
        assert np.array_equal(linalg.scaled_product(iter(stacks), 10, cps),
                              sequential_scaled_product(stacks, cps))

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_layout_moves_no_bits(self, k):
        stacks = factor_stacks(k, lanes=37)
        lanes_last = [np.ascontiguousarray(s.transpose(1, 2, 0)).transpose(2, 0, 1)
                      for s in stacks]
        assert all(s.flags.c_contiguous for s in stacks)
        assert not any(s.flags.c_contiguous for s in lanes_last)
        assert np.array_equal(linalg.scaled_product(iter(stacks), 10, (3, 10)),
                              linalg.scaled_product(iter(lanes_last), 10, (3, 10)))

    def test_spectral_norm_taken_only_at_checkpoints(self, monkeypatch):
        calls = []
        real = linalg.spectral_norm_batch
        monkeypatch.setattr(linalg, "spectral_norm_batch", lambda b: calls.append(1) or real(b))
        stacks = np.random.default_rng(14).standard_normal((40, 5, 3, 3))
        for cps in ((40,), (1, 8, 40), tuple(range(1, 41))):
            calls.clear()
            linalg.scaled_product(iter(stacks), 40, checkpoints=cps)
            assert len(calls) == len(cps)
