import numpy as np
import pytest
from fractions import Fraction

from cocyclelab import diophantine as dio
from cocyclelab.cocycle import GOLDEN_MEAN
from cocyclelab.errors import ValidationError

# frozen after the first scan; the convergent oracle below recomputes it
GOLDEN_CEST = 0.22683914255869633
GOLDEN_WORST_N = 2


def fibonacci_pairs(limit: int):
    """Consecutive Fibonacci pairs ``(F_k, F_{k+1})`` with ``F_{k+1} <=
    limit``: the continued-fraction convergents of the golden mean."""
    a, b = 0, 1
    while b <= limit:
        yield a, b
        a, b = b, a + b


def witness_by_convergents(x: float, max_denominator: int = 10**6, tol: float = 1e-15):
    """Reference for ``rational_witness`` by the Euclidean algorithm: the
    first convergent ``p/q`` of ``x`` with ``q <= max_denominator`` that
    lies within ``tol`` of ``x``, else ``None``."""
    frac = Fraction(x).limit_denominator(10**18)
    num, den = frac.numerator, frac.denominator
    pm2, pm1, qm2, qm1 = 0, 1, 1, 0
    while den:
        a, rem = divmod(num, den)
        num, den = den, rem
        p, q = a * pm1 + pm2, a * qm1 + qm2
        if q > max_denominator:
            return None
        if abs(x - p / q) <= tol:
            return p, q
        pm2, pm1, qm2, qm1 = pm1, p, qm1, q
    return None


def test_convergents_of_golden_are_fibonacci_ratios():
    pairs = list(fibonacci_pairs(10**6))
    assert pairs[:8] == [(0, 1), (1, 1), (1, 2), (2, 3), (3, 5), (5, 8), (8, 13), (13, 21)]
    assert pairs[-1] == (514229, 832040)
    for p, q in pairs:
        assert dio.rational_witness(p / q) == (p, q)
        if q >= 2:  # the closest fraction to the golden mean with denominator <= q
            assert Fraction(GOLDEN_MEAN).limit_denominator(q) == Fraction(p, q)
    assert dio.rational_witness(GOLDEN_MEAN) is None


def test_rational_witness():
    assert dio.rational_witness(0.5) == (1, 2)
    assert dio.rational_witness(3.0 / 7.0) == (3, 7)
    assert dio.rational_witness(GOLDEN_MEAN) is None
    assert dio.rational_witness(np.sqrt(2) - 1.0) is None


def test_rational_witness_matches_the_convergent_reference():
    rng = np.random.default_rng(25)
    q = rng.integers(1, 10**6 + 1, size=3000)
    exact = [int(a) / int(b) for a, b in zip(rng.integers(0, q), q)]
    nudges = rng.choice([-1.0, 1.0], size=3000) * 10.0 ** rng.uniform(-18, -10, size=3000)
    q_big = rng.integers(10**6, 10**8 + 1, size=2000)
    inputs = (exact + [x + e for x, e in zip(exact, nudges)] + list(rng.random(2000))
              + [int(a) / int(b) for a, b in zip(rng.integers(1, q_big), q_big)]
              + [GOLDEN_MEAN, np.sqrt(2.0) - 1.0, 1e-300, 5e-324])
    assert len(inputs) >= 10**4
    found = 0
    for x in inputs:
        want = witness_by_convergents(float(x))
        assert dio.rational_witness(float(x)) == want, x
        found += want is not None
    # every exact p/q is witnessed, and most of the other inputs are not
    assert 3000 <= found < len(inputs) // 2


def test_rational_shift_scores_zero():
    worst, c_est = dio.diophantine_minima(0.5, 2.0, 100)[-1]
    assert c_est == 0.0
    assert worst == 2


def test_golden_scan_pinned_and_convergent_oracle():
    worst, c_est = dio.diophantine_minima(GOLDEN_MEAN, 2.0, 10**5)[-1]
    assert abs(c_est - GOLDEN_CEST) <= 1e-13
    assert worst == GOLDEN_WORST_N
    assert worst in {q for _, q in fibonacci_pairs(10**5)}
    # oracle: the minimum of ||n w|| n (log n)^a over n <= N is attained at a
    # continued fraction convergent denominator; evaluate there exactly
    fx = Fraction(GOLDEN_MEAN)
    best = None
    for p, q in fibonacci_pairs(10**5):
        if q < 2:
            continue
        dist = abs(q * fx - p)
        val = float(dist) * q * np.log(q) ** 2.0
        if best is None or val < best[0]:
            best = (val, q)
    assert best is not None
    assert abs(best[0] - c_est) <= 1e-13
    assert best[1] == worst


def test_scan_monotone_in_exponent_for_n_at_least_3():
    # raising the exponent scales each term by (log n)^(da), which is >= 1
    # only once log n >= 1; at n = 2 the factor shrinks, so monotonicity of
    # the minimum holds on the n >= 3 tail (and genuinely fails at n = 2,
    # where the golden-mean scan attains its minimum)
    n = np.arange(3, 2001, dtype=np.float64)
    base = dio.torus_distance(n * GOLDEN_MEAN) * n
    for a in (1.5, 2.0, 3.0):
        assert np.min(base * np.log(n) ** (2 * a)) >= np.min(base * np.log(n) ** a)
    n2, c2 = dio.diophantine_minima(GOLDEN_MEAN, 2.0, 2000)[-1]
    n4, c4 = dio.diophantine_minima(GOLDEN_MEAN, 4.0, 2000)[-1]
    assert n2 == n4 == 2 and c4 < c2  # the documented n = 2 exception


def test_records_are_decreasing_prefix_minima():
    recs = dio.diophantine_minima(GOLDEN_MEAN, 2.0, 5000)
    vals = [v for _, v in recs]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert recs[0][0] == 2


def test_every_record_row_matches_a_plain_scan():
    # pi - 3 sets three records below 10^4 (n = 2, 7, 113); each row is
    # compared, not only the last
    omega, a = np.pi - 3.0, 2.0
    n = np.arange(2, 10**4 + 1, dtype=np.float64)
    vals = dio.torus_distance(n * omega) * n * np.log(n) ** a
    want, best = [], np.inf
    for k, v in zip(n, vals):
        if v < best:
            best = float(v)
            want.append((int(k), best))
    got = dio.diophantine_minima(omega, a, 10**4)
    assert [k for k, _ in want] == [2, 7, 113]
    assert got == want


def test_validation():
    with pytest.raises(ValidationError):
        dio.diophantine_minima(GOLDEN_MEAN, 2.0, 1)
    with pytest.raises(ValidationError):
        dio.diophantine_minima(GOLDEN_MEAN, 1.0, 100)


def test_torus_distance():
    assert np.allclose(dio.torus_distance(np.array([0.25, 0.75, 1.0, -0.1])),
                       [0.25, 0.25, 0.0, 0.1])
