import numpy as np
import pytest

from cocyclelab.util import pairwise_sum


def recursive_pairwise_sum(a: np.ndarray) -> float:
    """The reduction tree written as a recursion: halve a range of more than
    64 entries at ``size // 2``, sum a smaller one in order from ``0.0``."""
    if a.size <= 64:
        total = 0.0
        for v in a:
            total += float(v)
        return total
    half = a.size // 2
    return recursive_pairwise_sum(a[:half]) + recursive_pairwise_sum(a[half:])


def bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


class TestPairwiseSum:
    @pytest.mark.parametrize("sizes", [range(1, 301), (1024, 4096)])
    def test_bit_identical_to_the_recursive_tree(self, sizes):
        rng = np.random.default_rng(23)
        for n in sizes:
            a = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
            zeros = a.copy()
            zeros[rng.random(n) < 0.3] = -0.0
            for values in (a, zeros, np.full(n, -0.0)):
                assert bits(pairwise_sum(values)) == bits(recursive_pairwise_sum(values)), n

    def test_all_negative_zeros_sum_to_positive_zero(self):
        # each leaf starts from +0.0, as the recursion does
        assert bits(pairwise_sum(np.full(200, -0.0))) == bits(0.0)

    def test_empty_and_shape(self):
        assert pairwise_sum(np.zeros(0)) == 0.0
        with pytest.raises(ValueError, match="1-d"):
            pairwise_sum(np.zeros((2, 2)))
