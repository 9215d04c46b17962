import mpmath as mp
import numpy as np
import pytest

from cocyclelab import avalanche as ap
from cocyclelab import linalg
from cocyclelab.errors import NumericalRefusal, ValidationError

# frozen after the first run; the mpmath oracle below recomputes it
SEEDED_N20_DISCREPANCY = 1.007265382213518e-10


def rot(t: float) -> np.ndarray:
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, -s], [s, c]])


def seeded_sequence(seed: int = 20260809, n: int = 20) -> list[np.ndarray]:
    """Rotate-then-stretch factors with tight angles: hypotheses certify
    at mu = 1e8."""
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(-0.1, 0.1, size=n)
    return [rot(t) @ np.diag([1e4, 1e-4]) for t in thetas]


def admissible_sequence(rng: np.random.Generator):
    """Random certified sequence: d in {2,3}, n in 4..64, strong gaps and
    nearly aligned stretch directions."""
    d = int(rng.integers(2, 4))
    n = int(rng.integers(4, 65))
    mats = []
    for _ in range(n):
        diag = [10.0 ** rng.uniform(5.5, 7.0)] + list(rng.uniform(0.5, 2.0, size=d - 1))
        m = np.diag(diag)
        for axis in range(1, d):
            m = rot3(0, axis, rng.uniform(-0.1, 0.1), d) @ m
        for axis in range(1, d):
            m = m @ rot3(0, axis, rng.uniform(-0.05, 0.05), d)
        mats.append(m)
    return mats


def rot3(i: int, j: int, theta: float, d: int) -> np.ndarray:
    g = np.eye(d)
    c, s = np.cos(theta), np.sin(theta)
    g[i, i] = c
    g[j, j] = c
    g[i, j] = -s
    g[j, i] = s
    return g


class TestHypotheses:
    def test_aligned_diagonals(self):
        mats = [np.diag([1e6, 1.0])] * 3
        rep = ap.verify(mats, mu=1e6)
        assert rep.cond_dominant_direction
        assert rep.cond_mu_floor  # 16 * 9 <= 1e6
        assert rep.cond_no_cancellation
        assert rep.hypotheses_hold
        assert rep.mu == 1e6

    def test_certified_mu_is_min_gap(self):
        mats = [np.diag([1e6, 1.0]), np.diag([1e5, 1.0]), np.diag([1e7, 1.0])]
        rep = ap.verify(mats)
        assert np.isclose(rep.mu, 1e5)

    def test_quarter_turn_cancellation(self):
        # stretch of a quarter-turned axis annihilates the previous stretch:
        # the pair product has norm ~1e6, ratio ~1e-6 < mu^(-1/4)
        d = np.diag([1e6, 1.0])
        mats = [d, d @ rot(np.pi / 2), d, d @ rot(np.pi / 2)]
        rep = ap.verify(mats, mu=1e6)
        assert not rep.cond_no_cancellation
        assert np.isclose(np.min(rep.pair_ratios), 1e-6, rtol=1e-6)
        assert not rep.hypotheses_hold

    def test_gap_below_floor(self):
        n = 3
        mats = [np.diag([100.0, 1.0])] * n  # gap 100 < 16 n^2 = 144
        rep = ap.verify(mats, mu=16.0 * n * n)
        assert not (rep.cond_dominant_direction and rep.cond_mu_floor)
        assert not rep.hypotheses_hold

    def test_rejects_singular_factor(self):
        with pytest.raises(NumericalRefusal):
            ap.verify([np.diag([1.0, 0.0]), np.eye(2)])

    def test_needs_two_factors(self):
        with pytest.raises(ValidationError):
            ap.verify([np.eye(2)])


class TestDiscrepancy:
    def test_two_factors_exact_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            mats = [rng.standard_normal((3, 3)) + 2 * np.eye(3) for _ in range(2)]
            assert ap.verify(mats).discrepancy == 0.0

    def test_seeded_pinned_value_and_extended_precision_oracle(self):
        mats = seeded_sequence()
        rep = ap.verify(mats)
        assert rep.hypotheses_hold
        assert np.isclose(rep.mu, 1e8)
        assert abs(rep.discrepancy - SEEDED_N20_DISCREPANCY) <= 1e-12
        assert rep.discrepancy <= rep.bound
        mp.mp.dps = 60

        def mpnorm(m):
            fro2 = sum(m[i, j] ** 2 for i in range(2) for j in range(2))
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            return mp.sqrt((fro2 + mp.sqrt(fro2 * fro2 - 4 * det * det)) / 2)

        mats_mp = [mp.matrix(m.tolist()) for m in mats]
        full = mats_mp[0]
        for m in mats_mp[1:]:
            full = m * full
        total = mp.log(mpnorm(full))
        middle = sum(mp.log(mpnorm(mats_mp[j])) for j in range(1, 19))
        pairs = sum(mp.log(mpnorm(mats_mp[j + 1] * mats_mp[j])) for j in range(19))
        oracle = abs(total + middle - pairs)
        assert abs(rep.discrepancy - float(oracle)) <= 5e-13

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        mats = [rng.standard_normal((3, 3)) + 3 * np.eye(3) for _ in range(6)]
        base = ap.verify(mats).discrepancy
        for k, c in ((0, 17.0), (3, -0.003), (5, 1e6)):
            scaled = list(mats)
            scaled[k] = c * scaled[k]
            assert abs(ap.verify(scaled).discrepancy - base) <= 1e-10


class TestBound:
    def test_bound_holds_on_certified_sequences(self):
        rng = np.random.default_rng(424242)
        worst = 0.0
        for _ in range(60):
            mats = admissible_sequence(rng)
            rep = ap.verify(mats)
            assert rep.hypotheses_hold
            assert rep.discrepancy <= rep.bound
            worst = max(worst, rep.discrepancy / rep.bound)
        assert worst < 1.0


class TestOverlapBracket:
    def test_aligned_diagonals_overlap_one(self):
        mats = [np.diag([1e6, 1.0])] * 4
        report = ap.verify(mats)
        br = ap.overlap_bracket(report)
        assert np.allclose(br.overlaps, 1.0)
        assert np.allclose(report.pair_ratios, 1.0)
        assert not br.violations.any()

    def test_stretch_of_rotated_axis_closed_form(self):
        # second factor stretches the theta-rotated axis: the overlap of
        # consecutive top directions is exactly |cos theta|
        d = np.diag([1e6, 1.0])
        for theta in (0.1, 0.4, 1.0):
            mats = [d, d @ rot(theta)]
            br = ap.overlap_bracket(ap.verify(mats))
            assert abs(br.overlaps[0] - abs(np.cos(theta))) <= 1e-12
            # rotating the output side instead leaves the directions aligned
            mats = [d, rot(theta) @ d]
            br2 = ap.overlap_bracket(ap.verify(mats))
            assert abs(br2.overlaps[0] - 1.0) <= 1e-12

    def test_bracket_on_seeded_admissible_sequences(self):
        rng = np.random.default_rng(1000)
        checked = 0
        for _ in range(1000):
            d = np.diag([10.0 ** rng.uniform(4, 6), rng.uniform(0.5, 2.0)])
            mats = [d @ rot(rng.uniform(-0.2, 0.2)) for _ in range(int(rng.integers(2, 8)))]
            br = ap.overlap_bracket(ap.verify(mats))
            assert not br.violations.any()
            checked += len(br.overlaps)
        assert checked > 1000

    def test_batched_images_have_the_bits_of_the_per_pair_loop(self):
        def per_pair(report):
            # the overlaps as overlap_bracket took them one pair at a time
            overlaps = np.empty(report.n - 1)
            for j in range(report.n - 1):
                img = report.factors[j] @ report.directions[j]
                img = np.ldexp(img, -np.frexp(np.max(np.abs(img)))[1])
                overlaps[j] = abs(float(np.vdot(report.directions[j + 1],
                                                img / np.linalg.norm(img))))
            return overlaps

        rng = np.random.default_rng(2029)
        reports = [ap.verify(admissible_sequence(rng)) for _ in range(80)]
        reports += [ap.verify(seeded_sequence(seed, n)) for seed, n in ((1, 2), (2, 9), (3, 40))]
        reports += [projection_report(rng.uniform(0.05, 0.6, 12), eps, "rank1")
                    for eps in (0.5, 1e-3, 1e-6)]
        assert {r.dim for r in reports} == {2, 3}
        for report in reports:
            assert ap.overlap_bracket(report).overlaps.tobytes() == per_pair(report).tobytes()
        # a rank-2 projection's dominant subspace is a plane: refused before any image
        with pytest.raises(NumericalRefusal, match="unverifiable"):
            ap.overlap_bracket(projection_report([0.4, 1.1, 0.2], 1e-3, "rank2"))

    def test_degenerate_top_value_refused(self):
        with pytest.raises(NumericalRefusal, match="unverifiable"):
            mats = [rot(0.3), np.diag([2.0, 1.0])]
            ap.overlap_bracket(ap.verify(mats))

    def test_factors_beyond_square_range(self):
        # each factor's squared norm leaves the float range, its neighbour
        # products do not; overlaps and pair ratios are scale invariant
        big, small = np.diag([1e200, 1e190]), np.diag([1e-200, 1e-190])
        mats = [big @ rot(0.1), small @ rot(0.3), big]
        report = ap.verify(mats)
        assert np.allclose(report.norms, [1e200, 1e-190, 1e200], rtol=1e-15)
        unit = [m / np.linalg.norm(m, 2) for m in mats]
        unit_report = ap.verify(unit)
        assert np.allclose(report.pair_ratios, unit_report.pair_ratios, rtol=1e-12)
        assert np.allclose(ap.overlap_bracket(report).overlaps,
                           ap.overlap_bracket(unit_report).overlaps, rtol=1e-12)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_neighbour_products_beyond_float_range_refused(self, scale):
        with pytest.raises(NumericalRefusal, match="leaves the float range"):
            ap.verify([np.diag([scale, scale * 1e-10])] * 3)

    def test_scalar_factors_refused(self):
        # no second singular value: no gap, so no report to bracket against
        mats = [np.array([[2.0]]), np.array([[3.0]])]
        with pytest.raises(ValidationError, match="at least 2x2"):
            ap.verify(mats)

    def test_scalar_factors_refused_before_any_svd(self, monkeypatch):
        # a singular 1x1 factor is still a 1x1 factor: exit 1, not exit 2
        def no_svd(m):
            raise AssertionError("SVD of a factor verify must refuse")

        monkeypatch.setattr(linalg, "svd", no_svd)
        with pytest.raises(ValidationError, match="at least 2x2"):
            ap.verify([np.array([[0.0]]), np.array([[2.0]])])

    def test_report_carries_its_factors(self):
        mats = [np.diag([1e6, 1.0]), [[2e6, 0.0], [0.0, 1.0]]]
        report = ap.verify(mats)
        assert len(report.factors) == 2
        assert all(f.dtype == np.float64 and np.array_equal(f, m)
                   for f, m in zip(report.factors, mats))


class TestOneSvdPerFactor:
    @pytest.fixture
    def svd_calls(self, monkeypatch):
        calls = []  # the number of matrices of each call
        real = linalg.svd

        def counted(m, compute_uv=True):
            calls.append(1 if np.ndim(m) == 2 else len(m))
            return real(m, compute_uv=compute_uv)

        monkeypatch.setattr(linalg, "svd", counted)
        return calls

    def test_verify_makes_two_stack_svds_and_one_per_later_product_step(self, svd_calls):
        # one stack of the n factors, one of the n - 1 scaled pair products,
        # then one matrix per running-product step after the second
        for n in (2, 5, 20):
            mats = seeded_sequence(n=n)
            svd_calls.clear()
            rep = ap.verify(mats)
            assert svd_calls == [n, n - 1] + [1] * (n - 2)
            svd_calls.clear()
            ap.overlap_bracket(rep)
            assert svd_calls == []

    def test_report_reuses_the_factor_decomposition(self):
        mats = admissible_sequence(np.random.default_rng(5))
        rep = ap.verify(mats)
        for j, m in enumerate(mats):
            res = linalg.svd(m)
            assert rep.norms[j] == res.singular_values[0]
            assert rep.second_values[j] == res.singular_values[1]
            assert np.array_equal(rep.directions[j], res.right_factor[:, 0])
        for j in range(rep.n - 1):
            exact = np.linalg.norm(mats[j + 1] @ mats[j], 2)
            assert abs(rep.pair_norms[j] - exact) <= 1e-14 * exact


def projection_report(thetas, eps: float, mode: str) -> ap.APReport:
    return ap.verify(ap.projection_matrices(thetas, eps, mode))


class TestProjectionDemos:
    def test_rank1_sweep_discrepancy_vanishes(self):
        eps_values = [10.0 ** (-k) for k in range(1, 7)]
        sweep = [projection_report([np.pi / 4, np.pi / 4], eps, "rank1") for eps in eps_values]
        discs = [rep.discrepancy for rep in sweep]
        assert discs[-1] < 1e-3
        assert discs[-1] < discs[-2] < discs[-3]
        assert np.allclose(sweep[-1].pair_norms, np.cos(np.pi / 4), atol=1e-5)

    def test_rank2_pair_norms_exactly_one(self):
        for eps in (1.0, 0.37, 1e-3, 1e-6):
            rep = projection_report([0.4, 1.1, 0.2], eps, "rank2")
            assert np.max(np.abs(rep.pair_norms - 1.0)) <= 1e-12

    def test_rank1_orthogonal_ranges_annihilate(self):
        mats = ap.projection_matrices([np.pi / 2], 1e-6, "rank1")
        assert ap.verify(mats).pair_norms[0] <= 2e-6
        for mu in (1.01, 100.0, 1e8):
            rep = ap.verify(mats, mu=mu)
            assert not rep.cond_no_cancellation

    def test_validation(self):
        with pytest.raises(ValidationError):
            ap.projection_matrices([], 0.1, "rank1")
        with pytest.raises(ValidationError):
            ap.projection_matrices([0.1], 0.0, "rank1")
        with pytest.raises(ValidationError):
            ap.projection_matrices([0.1], 0.5, "rank7")
