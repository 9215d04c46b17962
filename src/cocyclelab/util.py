"""Small numeric helpers: deterministic reductions, dyadic scale ladders
and float formatting."""

from __future__ import annotations

import numpy as np

_PAIRWISE_BLOCK = 64


def pairwise_sum(values: np.ndarray) -> float:
    """Sum a 1-d array with a fixed-shape pairwise reduction tree.

    The tree depends only on the index order of ``values``, never on how
    the work that produced them was scheduled, so grid reductions are
    reproducible bit for bit.
    """
    a = np.asarray(values, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError("pairwise_sum expects a 1-d array")
    n = a.size
    if n == 0:
        return 0.0
    if n <= _PAIRWISE_BLOCK:
        total = 0.0
        for v in a:
            total += float(v)
        return total
    half = n // 2
    return pairwise_sum(a[:half]) + pairwise_sum(a[half:])


def pairwise_mean(values: np.ndarray) -> float:
    a = np.asarray(values, dtype=np.float64)
    if a.size == 0:
        raise ValueError("mean of empty array")
    return pairwise_sum(a) / a.size


def dyadic_ladder(n_min: int, n_max: int) -> tuple[int, ...]:
    """The scales ``n_min, 2 n_min, 4 n_min, ...`` up to ``n_max``."""
    scales = []
    n = n_min
    while n <= n_max:
        scales.append(n)
        n *= 2
    return tuple(scales)


def format_float(x: float) -> str:
    """17 significant digits: the fewest that round-trip every float64."""
    return f"{float(x):.17g}"
