"""Base points of ``T^nu`` for tests: the ``m^nu`` point grid and the
phasors ``e^{2 pi i t(x)}``, ``t(x) = sum x_i``, that the orbit kernel takes."""

import numpy as np


def torus_grid(nu: int, m: int) -> np.ndarray:
    """Uniform grid ``{k/m}^nu`` as a ``(m^nu, nu)`` array in C order."""
    axis = np.arange(m, dtype=np.float64) / m
    grids = np.meshgrid(*([axis] * nu), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=-1)


def phasors(x) -> np.ndarray:
    """1-d phasors of one point of the circle, a 1-d batch of them, or a
    ``(B, nu)`` point stack."""
    x = np.asarray(x, dtype=np.float64)
    return np.exp(2j * np.pi * np.atleast_1d(np.sum(x, axis=-1) if x.ndim == 2 else x))
