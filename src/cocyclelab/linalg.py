"""Dense exact-shape linear algebra for small matrices.

The spectral norm is the one matrix norm used throughout the package.
The batch helpers take ``(B, d, d)`` stacks: real ones everywhere, and
:func:`det_batch` and :func:`compound_batch` also complex ones.

No batch helper on the orbit step makes one LAPACK call per small matrix.
Up to ``d = 3`` a determinant is a closed form on the entry vectors, and
from ``d = 3`` on the spectral norm is a cyclic Jacobi eigen-iteration on
the Gram matrix, run over all lanes at once.  Both the 3x3 determinant
and the Jacobi first scale a matrix by the exact power of two of its
largest entry, so no square or product leaves the float range.  A closed form of the 3x3 spectral norm (the
trigonometric root of the Gram matrix's characteristic cubic) is not
used: it loses about half the digits when ``sigma_1 ~ sigma_2``, the case
the 2x2 formula is built to avoid.

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

The scalar SVD belongs to the avalanche-principle checker, its one
client: a one-sided Jacobi iteration on one real matrix, not a LAPACK
call, because it keeps high relative accuracy on strongly graded
matrices (Demmel-Veselic, SIAM J. Matrix Anal. Appl. 13, 1992) and the
checker reads singular value *ratios*, ``sigma_2`` and the top right
singular direction.  It returns the singular values and the orthogonal
right factor, the only parts the checker reads.  Membership in GL(d) is
one rule on the extreme singular values, :func:`invertible`, which the
checker, the family construction check and the random supports share.
"""

from __future__ import annotations

import math
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
#: the Gram-matrix Jacobi of spectral_norm_batch leaves an off-diagonal entry
#: below this fraction of the trace; sigma_1 then moves by less than
#: d^2 / 32 units in the last place
_GRAM_TOL = 2.0 ** -56
_GRAM_SWEEPS = 30
#: svd scales a matrix whose largest entry lies beyond 2^+-250, where a product
#: of two squared column norms could leave the float range
_SAFE_EXPONENT = 250


@dataclass(frozen=True)
class SvdResult:
    """Singular values ``s`` (non-increasing) and the orthogonal right
    factor ``V`` of a real ``M = U @ diag(s) @ V.T``: the columns of
    ``M @ V`` are orthogonal with norms ``s``."""

    singular_values: np.ndarray
    right_factor: np.ndarray


def svd(m) -> SvdResult:
    """One-sided Jacobi SVD ``(s, V)`` of a real square matrix; refuses
    complex and non-finite input.

    Deterministic: identical input yields byte-identical output.
    """
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if np.iscomplexobj(a):
        raise ValidationError("svd takes real matrices")
    a = a.astype(np.float64)
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix has non-finite entries")
    d = a.shape[0]
    # exact scaling by the power of two of the largest entry, only outside
    # the safe range, as LAPACK's xGESVD does (-1022 keeps the factor finite)
    e = math.frexp(float(np.abs(a).max()))[1]
    e = max(e, -1022) if abs(e) > _SAFE_EXPONENT else 0
    b = a * math.ldexp(1.0, -e)
    v = np.eye(d)

    for _ in range(_MAX_SWEEPS):
        rotated = False
        for p in range(d - 1):
            for q in range(p + 1, d):
                bp = b[:, p].copy()
                bq = b[:, q].copy()
                app = float(np.vdot(bp, bp))
                aqq = float(np.vdot(bq, bq))
                g = np.vdot(bp, bq)
                mag = abs(g)
                if mag <= _JACOBI_TOL * np.sqrt(app * aqq) or mag == 0.0:
                    continue
                rotated = True
                tau = (aqq - app) / (2.0 * mag)
                t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau != 0 else 1.0
                c = 1.0 / np.hypot(1.0, t)
                # the rotation [[c, s], [-s, c]] of columns (p, q), with the
                # sign of g folded into s
                s = c * t * np.sign(g)
                b[:, p] = c * bp - s * bq
                b[:, q] = s * bp + c * bq
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
        if not rotated:
            break
    else:
        raise NumericalRefusal("Jacobi SVD failed to converge")

    sigma = np.ldexp(np.sqrt(np.sum(b * b, axis=0)), e)
    order = np.argsort(-sigma, kind="stable")
    return SvdResult(singular_values=sigma[order], right_factor=v[:, order])


def invertible(top, low):
    """The GL(d) rule on the extreme singular values ``top >= low`` of one
    matrix or of a stack: ``top > 0`` and ``low / top > INVERTIBILITY_RTOL``."""
    top, low = np.asarray(top), np.asarray(low)
    ratio = np.divide(low, top, out=np.zeros(np.shape(low)), where=top > 0.0)
    return (top > 0.0) & (ratio > INVERTIBILITY_RTOL)


def require_invertible(m, context: str = "matrix") -> SvdResult:
    """Conditioning-based GL(d) membership test; returns the SVD it tested."""
    res = svd(m)
    s = res.singular_values
    if not invertible(s[0], s[-1]):
        raise NumericalRefusal(
            f"{context} is numerically singular "
            f"(singular value ratio below {INVERTIBILITY_RTOL:g})"
        )
    return res


# --- batched helpers used by the orbit kernels -------------------------------

def _top_exponent(b: np.ndarray) -> np.ndarray:
    """Per matrix of a stack, the ``e`` with largest entry in ``[2^(e-1), 2^e)``
    (0 for a zero matrix)."""
    return np.frexp(np.max(np.abs(b), axis=(1, 2)))[1]


def _scaled_2x2(b: np.ndarray):
    """Exponent ``e`` of the largest entry of each 2x2 matrix of a stack, its
    entries ``p, q, r, s`` scaled by ``2^-e``, and its scaled sigma_1.

    For [[p, q], [r, s]], sigma_1 = (|(p+s, q-r)| + |(p-s, q+r)|) / 2: a sum
    of norms, so no digits cancel when sigma_1 ~ sigma_2.  The scaling keeps
    every square and product in range and is exact, so in-range matrices
    keep every bit."""
    e = _top_exponent(b)
    p, q, r, s = (np.ldexp(b[:, i, k], -e) for i, k in ((0, 0), (0, 1), (1, 0), (1, 1)))
    top = 0.5 * (np.sqrt((p + s) ** 2 + (q - r) ** 2) + np.sqrt((p - s) ** 2 + (q + r) ** 2))
    return e, (p, q, r, s), top


def _gram_top_eigenvalue(g: np.ndarray) -> np.ndarray:
    """Largest eigenvalue per lane of a symmetric lanes-last ``(d, d, B)``
    stack with trace of order one, by cyclic Jacobi; ``g`` is overwritten.

    Rotation ``(p, q)`` zeroes ``g_pq`` with ``t = tan`` of the angle
    (Golub-Van Loan, Alg. 8.5.2) and moves the diagonal by ``-+ t g_pq``;
    the other entries only mix off-diagonals, so rounding never feeds the
    diagonal back into them.  Lanes whose ``|g_pq|`` is negligible get
    ``t = 0``, which changes no bit."""
    d = g.shape[0]
    floor = _GRAM_TOL * np.trace(g)
    pairs = tuple((p, q, [r for r in range(d) if r != p and r != q])
                  for p, q in combinations(range(d), 2))
    for _ in range(_GRAM_SWEEPS):
        if not any(np.any(np.abs(g[p, q]) > floor) for p, q, _ in pairs):
            return np.diagonal(g).max(axis=-1)
        for p, q, others in pairs:
            apq = g[p, q].copy()
            rot = np.abs(apq) > floor
            # |theta| <= 1 / (2 _GRAM_TOL) where rotating; hypot never
            # overflows, so t -> 1 / (2 theta) for large theta
            theta = (g[q, q] - g[p, p]) / np.where(rot, 2.0 * apq, 1.0)
            t = np.where(rot, np.copysign(1.0, theta) / (np.abs(theta) + np.hypot(1.0, theta)), 0.0)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            gp, gq = g[others, p], g[others, q]
            g[others, p] = g[p, others] = c * gp - s * gq
            g[others, q] = g[q, others] = s * gp + c * gq
            g[p, p] -= t * apq
            g[q, q] += t * apq
            g[p, q] = g[q, p] = np.where(rot, 0.0, apq)
    raise NumericalRefusal(f"Gram-matrix Jacobi did not converge in {_GRAM_SWEEPS} sweeps")


def spectral_norm_batch(batch: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a real ``(B, d, d)`` stack.

    ``d = 2`` has a closed form (:func:`_scaled_2x2`).  From ``d = 3`` on,
    each matrix is scaled by the power of two of its largest entry, and
    ``sigma_1`` is the square root of the largest eigenvalue of the Gram
    matrix ``A^T A``, from a Jacobi iteration over all lanes at once
    (:func:`_gram_top_eigenvalue`).  Forming ``A^T A`` costs ``sigma_1``
    only a few units in the last place, and the Jacobi iteration keeps that
    accuracy (Demmel-Veselic, SIAM J. Matrix Anal. Appl. 13, 1992), also
    where ``sigma_1 ~ sigma_2``: the trigonometric root of the
    characteristic cubic, tried for ``d = 3``, erred there by about ``2e7``
    units.  A lane that does not converge is refused, never returned.
    """
    b = np.asarray(batch)
    d = b.shape[-1]
    if d == 1:
        return np.abs(b[:, 0, 0])
    if d == 2:
        e, _, top = _scaled_2x2(b)
        return np.ldexp(top, e)
    e = _top_exponent(b)
    a = np.ldexp(b.transpose(1, 2, 0), -e)
    return np.ldexp(np.sqrt(_gram_top_eigenvalue(np.einsum("kib,kjb->ijb", a, a))), e)


def extreme_singular_values_batch(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(largest, smallest) singular values per matrix of a stack."""
    b = np.asarray(batch)
    d = b.shape[-1]
    if d == 1:
        s = np.abs(b[:, 0, 0])
        return s, s.copy()
    if d == 2:
        # sigma_2 = |det| / sigma_1, both from the scaled entries
        e, (p, q, r, s), top = _scaled_2x2(b)
        with np.errstate(divide="ignore", invalid="ignore"):
            low = np.where(top > 0.0, np.abs(p * s - q * r) / top, 0.0)
        return np.ldexp(top, e), np.ldexp(low, e)
    s = np.linalg.svd(b, compute_uv=False)
    return s[:, 0], s[:, -1]


def det_batch(batch: np.ndarray) -> np.ndarray:
    """Determinant of each matrix of a real or complex ``(B, d, d)`` stack.

    ``d <= 3`` is a closed form on the entry vectors.  At ``d = 3`` each
    matrix is first multiplied by ``2^-e``, ``2^e`` the power of two of its
    largest entry, the cofactor expansion is taken on the scaled entries,
    and the result is multiplied by ``2^e`` three times.  Multiplying by a
    power of two is exact for real and complex entries alike, and no
    product of three scaled entries can overflow.  Larger ``d`` goes to
    LAPACK.
    """
    b = np.asarray(batch)
    d = b.shape[-1]
    if d == 1:
        return b[:, 0, 0].copy()
    if d == 2:
        return b[:, 0, 0] * b[:, 1, 1] - b[:, 0, 1] * b[:, 1, 0]
    if d > 3:
        return np.linalg.det(b)
    # clipped so that 2^-e and 2^e are normal floats
    e = np.clip(_top_exponent(b), -1021, 1021)
    up = np.ldexp(1.0, e)
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = b.transpose(1, 2, 0) * np.ldexp(1.0, -e)
    det = (a00 * (a11 * a22 - a12 * a21) - a01 * (a10 * a22 - a12 * a20)
           + a02 * (a10 * a21 - a11 * a20))
    return det * up * up * up


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
