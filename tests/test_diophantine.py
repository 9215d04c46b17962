import numpy as np
import pytest
from fractions import Fraction

from cocyclelab import diophantine as dio
from cocyclelab.cocycle import GOLDEN_MEAN
from cocyclelab.errors import ValidationError

FIBONACCI = {1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597,
             2584, 4181, 6765, 10946, 17711, 28657, 46368, 75025}

# frozen after the first scan; the convergent oracle below recomputes it
GOLDEN_CEST = 0.22683914255869633
GOLDEN_WORST_N = 2


def test_convergents_of_golden_are_fibonacci_ratios():
    cs = dio.convergents(GOLDEN_MEAN)[:8]
    assert cs == [(0, 1), (1, 1), (1, 2), (2, 3), (3, 5), (5, 8), (8, 13), (13, 21)]


def test_rational_witness():
    assert dio.rational_witness(0.5) == (1, 2)
    assert dio.rational_witness(3.0 / 7.0) == (3, 7)
    assert dio.rational_witness(GOLDEN_MEAN) is None
    assert dio.rational_witness(np.sqrt(2) - 1.0) is None


def test_rational_shift_scores_zero():
    worst, c_est = dio.diophantine_minima(0.5, 2.0, 100)[-1]
    assert c_est == 0.0
    assert worst == 2


def test_golden_scan_pinned_and_convergent_oracle():
    worst, c_est = dio.diophantine_minima(GOLDEN_MEAN, 2.0, 10**5)[-1]
    assert abs(c_est - GOLDEN_CEST) <= 1e-13
    assert worst == GOLDEN_WORST_N
    assert worst in FIBONACCI
    # oracle: the minimum of ||n w|| n (log n)^a over n <= N is attained at a
    # continued fraction convergent denominator; evaluate there exactly
    fx = Fraction(GOLDEN_MEAN)
    best = None
    for p, q in dio.convergents(GOLDEN_MEAN):
        if q < 2:
            continue
        if q > 10**5:
            break
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
