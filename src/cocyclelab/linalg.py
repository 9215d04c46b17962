"""Dense exact-shape linear algebra for small matrices.

Everything here treats a matrix as a plain ``numpy`` array of shape
``(d, d)`` with float64 or complex128 entries; the scalar field is the
dtype.  The spectral norm is the one matrix norm used throughout the
package.  The batch helpers at the end take real ``(B, d, d)`` stacks.

:func:`scaled_product` is the one renormalised running product of the
package: the orbit kernel and the random-product kernel both feed it
their factor stacks (Benettin et al., Meccanica 15, 1980).  It rescales
by exact powers of two after every step, keeping the exponents in an
integer sum, and takes spectral norms only at the requested checkpoints.

Batch stacks are lanes-last in memory: a ``(B, k, k)`` stack is the
transposed view of a C-contiguous ``(k, k, B)`` array, so each matrix
entry is one contiguous vector over the ``B`` lanes and a step of the
product is a few vector operations, not ``B`` small BLAS calls.  The
batch helpers accept any layout; the producers of the orbit and random
kernels write this one.

The SVD is a one-sided Jacobi iteration rather than a LAPACK call: at
these dimensions it is fast enough, and it retains high relative
accuracy on strongly graded matrices (Demmel-Veselic, SIAM J. Matrix
Anal. Appl. 13, 1992), which matters because singular value *ratios*
feed the avalanche-principle hypothesis checks.  It returns the singular
values and the right singular vectors, the only parts those checks read.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import NumericalRefusal, ValidationError

# Conditioning threshold: below this ratio of extreme singular values a
# matrix is treated as numerically singular and GL(d) operations refuse.
INVERTIBILITY_RTOL = 1e-13

_LN2 = float(np.log(2.0))

_JACOBI_TOL = 1e-15
_MAX_SWEEPS = 60


def _as_square(m) -> np.ndarray:
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if not np.issubdtype(a.dtype, np.complexfloating):
        a = a.astype(np.float64)
    else:
        a = a.astype(np.complex128)
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix has non-finite entries")
    return a


@dataclass(frozen=True)
class SvdResult:
    """Singular values ``s`` (non-increasing) and the unitary right factor
    ``V`` of ``M = U @ diag(s) @ V.conj().T``: the columns of ``M @ V``
    are orthogonal with norms ``s``."""

    singular_values: np.ndarray
    right_factor: np.ndarray


def svd(m) -> SvdResult:
    """One-sided Jacobi SVD ``(s, V)`` of a square real or complex matrix.

    Deterministic: identical input yields byte-identical output.
    """
    a = _as_square(m)
    d = a.shape[0]
    b = a.copy()
    v = np.eye(d, dtype=a.dtype)

    for _ in range(_MAX_SWEEPS):
        rotated = False
        for p in range(d - 1):
            for q in range(p + 1, d):
                bp = b[:, p].copy()
                bq = b[:, q].copy()
                app = float(np.real(np.vdot(bp, bp)))
                aqq = float(np.real(np.vdot(bq, bq)))
                g = np.vdot(bp, bq)  # conj(bp) . bq
                mag = abs(g)
                if mag <= _JACOBI_TOL * np.sqrt(app * aqq) or mag == 0.0:
                    continue
                rotated = True
                phase = g / mag
                tau = (aqq - app) / (2.0 * mag)
                t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau != 0 else 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = c * t
                # right-multiply columns (p,q) by diag(1, conj(phase)) then
                # the real rotation [[c, s], [-s, c]]; phase is +-1 for reals
                bq_al = bq * np.conj(phase)
                b[:, p] = c * bp - s * bq_al
                b[:, q] = s * bp + c * bq_al
                vp = v[:, p].copy()
                vq_al = v[:, q] * np.conj(phase)
                v[:, p] = c * vp - s * vq_al
                v[:, q] = s * vp + c * vq_al
        if not rotated:
            break
    else:
        raise NumericalRefusal("Jacobi SVD failed to converge")

    sigma = np.sqrt(np.sum(np.abs(b) ** 2, axis=0))
    order = np.argsort(-sigma, kind="stable")
    return SvdResult(singular_values=sigma[order], right_factor=v[:, order])


def operator_norm(m) -> float:
    """Spectral norm, i.e. the largest singular value."""
    a = _as_square(m)
    if a.shape[0] == 1:
        return float(abs(a[0, 0]))
    return float(svd(a).singular_values[0])


def require_invertible(m, context: str = "matrix") -> SvdResult:
    """Conditioning-based GL(d) membership test; returns the SVD it tested."""
    res = svd(m)
    s = res.singular_values
    if not (s[0] > 0.0 and float(s[-1] / s[0]) > INVERTIBILITY_RTOL):
        raise NumericalRefusal(
            f"{context} is numerically singular "
            f"(singular value ratio below {INVERTIBILITY_RTOL:g})"
        )
    return res


# --- batched helpers used by the orbit kernels -------------------------------

def spectral_norm_batch(batch: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a real ``(B, d, d)`` stack."""
    b = np.asarray(batch)
    d = b.shape[-1]
    if d == 1:
        return np.abs(b[:, 0, 0])
    if d == 2:
        # for [[p, q], [r, s]], sigma_1 = (|(p+s, q-r)| + |(p-s, q+r)|) / 2:
        # a sum of norms, so no digits cancel when sigma_1 ~ sigma_2
        p, q, r, s = b[:, 0, 0], b[:, 0, 1], b[:, 1, 0], b[:, 1, 1]
        return 0.5 * (np.sqrt((p + s) ** 2 + (q - r) ** 2)
                      + np.sqrt((p - s) ** 2 + (q + r) ** 2))
    return np.linalg.svd(b, compute_uv=False)[:, 0]


def extreme_singular_values_batch(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(largest, smallest) singular values per matrix of a stack."""
    b = np.asarray(batch)
    d = b.shape[-1]
    if d == 1:
        s = np.abs(b[:, 0, 0])
        return s, s.copy()
    if d == 2:
        top = spectral_norm_batch(b)
        det = np.abs(b[:, 0, 0] * b[:, 1, 1] - b[:, 0, 1] * b[:, 1, 0])
        with np.errstate(divide="ignore", invalid="ignore"):
            low = np.where(top > 0.0, det / top, 0.0)
        return top, low
    s = np.linalg.svd(b, compute_uv=False)
    return s[:, 0], s[:, -1]


def det_batch(batch: np.ndarray) -> np.ndarray:
    b = np.asarray(batch)
    if b.shape[-1] == 1:
        return b[:, 0, 0].copy()
    if b.shape[-1] == 2:
        return b[:, 0, 0] * b[:, 1, 1] - b[:, 0, 1] * b[:, 1, 0]
    return np.linalg.det(b)


def compound_batch(batch: np.ndarray, p: int) -> np.ndarray:
    """The ``p``-th compound (exterior power) of every matrix of a
    ``(B, d, d)`` stack: all ``p x p`` minors, rows and columns indexed by
    the size-``p`` subsets of ``{0..d-1}`` in lexicographic order.

    Multiplicative in its argument, and its spectral norm is the product
    of the ``p`` largest singular values.  ``p = 1`` returns the input
    itself, not a copy.  Otherwise the result is lanes-last: the ``p = 2``
    minors are built from the entry vectors of the stack as ``a d - b c``,
    the operations of :func:`det_batch`, straight into a ``(k, k, B)``
    array whose transposed view is returned.
    """
    b = np.asarray(batch)
    d = b.shape[-1]
    if not 1 <= p <= d:
        raise ValidationError(f"compound order p={p} out of range 1..{d}")
    if p == 1:
        return b
    if p == d:
        return det_batch(b).reshape(-1, 1, 1)
    basis = np.array(tuple(combinations(range(d), p)))
    if p == 2:
        lanes = b.transpose(1, 2, 0)
        r0, r1 = basis[:, 0, np.newaxis], basis[:, 1, np.newaxis]
        c0, c1 = basis[:, 0], basis[:, 1]
        out = lanes[r0, c0] * lanes[r1, c1] - lanes[r0, c1] * lanes[r1, c0]
    else:
        out = np.empty((len(basis), len(basis), b.shape[0]), dtype=b.dtype)
        for i, rows in enumerate(basis):
            for j, cols in enumerate(basis):
                out[i, j] = np.linalg.det(b[:, rows, :][:, :, cols])
    return out.transpose(2, 0, 1)


def scaled_product(factors, n: int, checkpoints=None) -> np.ndarray:
    """Log-norms of the renormalised running product ``F_n ... F_1`` of
    ``n`` factor stacks.

    ``factors`` yields ``n`` real ``(B, k, k)`` stacks, ``F_1`` first.
    After every multiplication the product is scaled by the power of two
    ``2^-e`` that brings its Frobenius norm into ``[1/2, 1)``, and ``e``
    is added to an integer exponent sum; the scaling is exact, so no
    rounding and no logarithm is spent per step.  The spectral norm is
    taken only at the checkpoints, where ``log ||F_c ... F_1||`` is
    ``e_sum * log 2 + log ||scaled product||``.  A step whose squared
    Frobenius norm is zero or not finite is refused, naming the step and
    the first such matrix of the stack (also kept as the refusal's
    ``matrix`` attribute): that covers a zero or non-finite factor, and
    factor norms above about ``1e154`` or below about ``1e-162``, where
    that square leaves the float range.

    The running product is a C-contiguous ``(k, k, B)`` array, and a
    factor that arrives lanes-last (the transposed view of such an array)
    is used as it is; any other layout is copied into it once.  Each
    entry of the product is then ``sum_j f_ij p_jk``, added in order of
    ``j`` as a plain multiply then add over contiguous lanes.  A batched
    ``np.matmul`` makes one BLAS call per small matrix instead, and BLAS
    uses fused multiply-adds, so the last bits of a product can differ
    from ``np.matmul``'s; they never depend on ``B``, on the layout of
    the factors or on how the lanes are chunked.

    Returns the log-norm per matrix at each checkpoint (default ``(n,)``;
    increasing, ending at ``n``), shape ``(len(checkpoints), B)``.  The
    factor stacks are never changed in place.
    """
    if n < 1:
        raise ValidationError("product length must be at least 1")
    cps = tuple(checkpoints) if checkpoints is not None else (n,)
    if list(cps) != sorted(set(cps)) or cps[-1] != n or cps[0] < 1:
        raise ValidationError("checkpoints must be increasing and end at n")
    rows = []
    expo = prod = None
    for j, f in zip(range(1, n + 1), factors):
        lanes = np.ascontiguousarray(np.asarray(f).transpose(1, 2, 0), dtype=np.float64)
        prod = lanes.copy() if prod is None else np.einsum("ijb,jkb->ikb", lanes, prod)
        fro2 = np.einsum("ijb,ijb->b", prod, prod)
        ok = np.isfinite(fro2) & (fro2 > 0.0)
        if not np.all(ok):
            exc = NumericalRefusal(f"degenerate factor in scaled product at step {j}, "
                                   f"matrix {np.argmin(ok)}")
            exc.matrix = int(np.argmin(ok))
            raise exc
        e = np.frexp(np.sqrt(fro2))[1]
        np.ldexp(prod, -e, out=prod)
        expo = e.astype(np.int64) if expo is None else expo + e
        if j in cps:
            rows.append(expo * _LN2 + np.log(spectral_norm_batch(prod.transpose(2, 0, 1))))
    if len(rows) != len(cps):
        raise ValidationError(f"expected {n} factor stacks")
    return np.array(rows)
