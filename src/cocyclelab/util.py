"""Small numeric helpers: deterministic reductions, dyadic scale ladders
and float formatting."""

from __future__ import annotations

import numpy as np

_PAIRWISE_BLOCK = 64


def pairwise_sum(values: np.ndarray) -> float:
    """Sum a 1-d array with a fixed-shape pairwise reduction tree.

    A range of more than ``_PAIRWISE_BLOCK`` entries is split at ``size //
    2``; a smaller one (a leaf) is summed in order, starting from ``0.0``.
    The tree depends only on the index order of ``values``, never on how
    the work that produced them was scheduled, so grid reductions are
    reproducible bit for bit.  All leaves are summed at once, column by
    column, padded with ``0.0`` (which moves no bit of a sum that starts at
    ``+0.0``), then combined level by level up the same tree.
    """
    a = np.asarray(values, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError("pairwise_sum expects a 1-d array")
    if a.size == 0:
        return 0.0
    ranges, splits = [(0, a.size)], []  # (start, size) per range of a level
    while max(size for _, size in ranges) > _PAIRWISE_BLOCK:
        splits.append([size > _PAIRWISE_BLOCK for _, size in ranges])
        ranges = [half for start, size in ranges for half in (
            ((start, size // 2), (start + size // 2, size - size // 2))
            if size > _PAIRWISE_BLOCK else ((start, size),))]
    starts, sizes = np.array(ranges).T
    rows = np.arange(_PAIRWISE_BLOCK + 1)[:, np.newaxis]
    leaves = np.concatenate(([0.0], a))[np.where((rows >= 1) & (rows <= sizes), starts + rows, 0)]
    sums = np.add.accumulate(leaves, axis=0)[-1].tolist()
    for split in reversed(splits):
        below = iter(sums)
        sums = [next(below) + next(below) if s else next(below) for s in split]
    return sums[0]


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
