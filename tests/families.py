"""Families built directly for tests, apart from the config parser."""

import numpy as np

from cocyclelab.cocycle import TrigPolyFamily


def constant_family(base, matrix, **kwargs) -> TrigPolyFamily:
    """The ``x``- and ``E``-independent family of one square ``matrix``: the
    degree-0 trigonometric polynomial, as ``cocycle.kind = constant`` builds it."""
    m = np.asarray(matrix, dtype=np.float64)
    d = m.shape[0]
    return TrigPolyFamily(base=base, dim=d, cos_coeffs=m.reshape(d, d, 1),
                          sin_coeffs=np.zeros((d, d, 0)), **kwargs)
