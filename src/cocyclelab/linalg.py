"""Dense exact-shape linear algebra for small matrices.

The spectral norm is the one matrix norm used throughout the package.
The batch helpers take ``(B, d, d)`` stacks: real ones everywhere, and
:func:`det_batch` and :func:`compound_batch` also complex ones.

No batch helper on the orbit step of a ``d <= 3`` family makes one LAPACK
call per small matrix.  Up to ``d = 3`` a determinant is a closed form on
the entry vectors, and for ``3 <= d <= 5`` the spectral norm is a cyclic
Jacobi eigen-iteration on the Gram matrix over all lanes at once (LAPACK
is faster beyond).  Both first scale a matrix by the exact power of two of
its largest entry, so no square or product leaves the float range.  A
closed form of the 3x3 spectral norm (the trigonometric root of the Gram
matrix's characteristic cubic) loses about half the digits when ``sigma_1
~ sigma_2``, the case the 2x2 formula is built to avoid.

:func:`scaled_product` is the one renormalised running product of the
package: the orbit kernel and the random-product kernel both hand it a
producer of the factor stack of step ``j`` (Benettin et al., Meccanica
15, 1980), and every compound order runs through it, ``p = d`` as a
stack of 1x1 determinants (:func:`compound_batch`) whose step is a plain
multiply.  The multiply of a step is the generic ``F P`` unless the caller
hands one in: the orbit kernel does so for a kind that knows the form of
its factors (the Schrödinger recurrence at ``p = 1``).  Such a multiply
returns a new product, never writes into the one it is given, and gives
the same bits on every call for a step, as a block replay asks it again.
It rescales by exact powers of two in blocks of eight steps,
cut short at every checkpoint, whatever the lane count, keeping the
exponents in an integer sum, and takes spectral norms only at the
checkpoints.  A power of two commutes with every rounding while entries
stay in range, so the blocks give the bits of rescaling after every step;
a block that ends with an entry out of range is replayed one step at a
time, asking the producer again for each of its steps.  A product is
refused for its entries, never for their squares.

Batch stacks are lanes-last in memory: a ``(B, k, k)`` stack is the
transposed view of a C-contiguous ``(k, k, B)`` array, so each matrix
entry is one contiguous vector over the ``B`` lanes and a step of the
product is a few vector operations, not ``B`` small BLAS calls.  The
batch helpers accept any layout; the producers of the orbit and random
kernels write this one.

The full SVD belongs to the avalanche-principle checker, its one
client: a cyclic one-sided Jacobi iteration, not a LAPACK call, because
it keeps high relative accuracy on strongly graded matrices
(Demmel-Veselic, SIAM J. Matrix Anal. Appl. 13, 1992) and the checker
reads singular value *ratios*, ``sigma_2`` and the top right singular
direction.  A stack of real matrices is swept lanes-last and returns the
singular values and the orthogonal right factor, all the checker reads.
The singular values alone of one matrix, all its running product reads,
come wholly from Python floats, checks, scaling, sweeps and sorted norms,
by the same operations in the same order, so they get the bits of a
stack of one without numpy's per-call cost on arrays of one lane.
Membership in GL(d) is one rule on the extreme singular values,
:func:`invertible`, which the checker, the family construction check and
the random supports share.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import copysign, frexp, isfinite, ldexp, sqrt

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
#: spectral_norm_batch takes LAPACK's SVD from this d on: on 4096 lanes the Gram
#: Jacobi takes 66 against 26 ms at d = 6, 5.2 s against 92 ms at d = 20
_LAPACK_FROM = 6
#: svd scales a matrix whose largest entry lies beyond 2^+-250, where a product
#: of two squared column norms could leave the float range
_SAFE_EXPONENT = 250
#: the sign pattern of a column pair turned a quarter, (p, q) -> (-q, p)
_FLIP = np.array([-1.0, 1.0])[:, np.newaxis]
#: scaled_product renormalises every _BLOCK_STEPS steps, and at checkpoints
_BLOCK_STEPS = 8
#: the least normal float: a block must end with its largest entry at least this
_TINY = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class SvdResult:
    """Singular values ``s`` (non-increasing) and the orthogonal right
    factor ``V`` of a real ``M = U @ diag(s) @ V.T``, or of each matrix of
    a stack: the columns of ``M @ V`` are orthogonal with norms ``s``."""

    singular_values: np.ndarray
    right_factor: np.ndarray


def _row_sum(x):
    """``x[0] + x[1] + ...`` in row order, of arrays or of Python floats, so
    that a column dot product of lanes-last matrices has bits no lane moves."""
    acc = x[0]
    for row in x[1:]:
        acc = acc + row
    return acc


def _sweep_lanes(x: np.ndarray) -> None:
    """The sweeps of :func:`svd` over the lanes of ``x``, shape ``(rows, d,
    B)``, in place; a lane leaves after its first sweep without a rotation."""
    d = x.shape[1]
    # columns p < q as one basic slice, so that work[pq] is a view
    pairs = [np.s_[:, p:q + 1:q - p] for p, q in combinations(range(d), 2)]
    lanes = np.arange(x.shape[-1])  # the lanes still sweeping ...
    work = x  # ... and their columns
    # tau overflows to +-inf where mag is subnormal, and t is then 0; no
    # other quantity of the sweeps can leave the float range
    with np.errstate(over="ignore"):
        for _ in range(_MAX_SWEEPS):
            rotated = np.zeros(lanes.size, dtype=bool)
            for pq in pairs:
                cols = work[:d][pq]
                gram = _row_sum(cols[:, :, np.newaxis] * cols[:, np.newaxis])
                app, aqq, g = gram[0, 0], gram[1, 1], gram[0, 1]
                mag = np.abs(g)
                # a lane that passes this test counts as rotated, also where t is 0
                rot = mag > _JACOBI_TOL * np.sqrt(app * aqq)
                n_rot = np.count_nonzero(rot)
                if n_rot == 0:
                    continue
                rotated |= rot
                every = n_rot == rot.size
                tau = (aqq - app) / (2.0 * mag if every else np.where(rot, 2.0 * mag, 1.0))
                # tau is never -0: copysign is its sign, and t = 1 at tau = 0
                t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.hypot(1.0, t)
                # the rotation [[c, s], [-s, c]] of columns (p, q), with the
                # sign of g folded into s: (p, q) -> c (p, q) + s (-q, p)
                s = c * t * np.sign(g)
                old = work[pq]
                new = c * old + s * (old[:, ::-1] * _FLIP)
                work[pq] = new if every else np.where(rot, new, old)
            if not rotated.all():
                # lanes without a rotation have converged: store any that
                # were copied out, and sweep the rest
                if work is not x:
                    x[..., lanes[~rotated]] = work[..., ~rotated]
                lanes = lanes[rotated]
                if lanes.size == 0:
                    break
                work = work[..., rotated]
        else:
            raise NumericalRefusal("Jacobi SVD failed to converge")


def _unscaled(sigma, e) -> np.ndarray:
    """Scaled singular values, ``(d,)`` or lanes-last ``(d, B)``, times
    ``2^e``; refuses a matrix whose singular values leave the float range,
    though its entries do not.  Of a stack, the refusal names (and keeps)
    its first such matrix, as :func:`_rescale` does."""
    with np.errstate(over="ignore"):
        sigma = np.ldexp(sigma, e)
    finite = np.isfinite(sigma).all(axis=0)
    if not finite.all():
        if finite.ndim == 0:
            raise NumericalRefusal("singular value beyond the float range")
        i = int(np.argmin(finite))
        exc = NumericalRefusal(f"singular value beyond the float range, matrix {i}")
        exc.matrix = i
        raise exc
    return sigma


def _svd_one(a: np.ndarray) -> np.ndarray:
    """:func:`svd`'s singular values of one real matrix, wholly in Python
    floats.  Each quantity is the lanes' formula in the lanes' order, so the
    bits are those of a stack of one, without numpy's per-call cost on arrays
    of one lane.  The hypot is ``np.hypot``, the lanes' own; ``math.hypot``
    differs from it in the last place."""
    d = a.shape[0]
    cols = np.asarray(a.T, np.float64).tolist()  # column p of the matrix
    flat = sum(cols, [])
    if not all(map(isfinite, flat)):
        raise ValidationError("matrix has non-finite entries")
    e = frexp(max(map(abs, flat)))[1]
    e = max(e, -1022) if abs(e) > _SAFE_EXPONENT else 0  # as for a stack
    if e:
        cols = [[ldexp(v, -e) for v in col] for col in cols]
    for _ in range(_MAX_SWEEPS):
        rotated = False
        for p, q in combinations(range(d), 2):
            cp, cq = cols[p], cols[q]
            # in row order from 0.0: only a zero g, which never rotates, can differ (in sign)
            app = aqq = g = 0.0
            for u, v in zip(cp, cq):
                app, aqq, g = app + u * u, aqq + v * v, g + u * v
            mag = abs(g)
            # a rotation needs mag > 0, so tau overflows to +-inf as the
            # lanes' does and never divides by zero
            if not mag > _JACOBI_TOL * sqrt(app * aqq):
                continue
            rotated = True
            tau = (aqq - app) / (2.0 * mag)
            t = copysign(1.0, tau) / (abs(tau) + float(np.hypot(1.0, tau)))
            c = 1.0 / float(np.hypot(1.0, t))
            s = c * t * copysign(1.0, g)
            # (p, q) -> c (p, q) + s (-q, p), where s (-v) is -(s v) exactly
            cols[p] = [c * u - s * v for u, v in zip(cp, cq)]
            cols[q] = [c * v + s * u for u, v in zip(cp, cq)]
        if not rotated:
            break
    else:
        raise NumericalRefusal("Jacobi SVD failed to converge")
    sigma = [sqrt(_row_sum([v * v for v in col])) for col in cols]
    if e:  # numpy's ldexp, as for the lanes
        sigma = _unscaled(sigma, e).tolist()
    return np.array(sorted(sigma, reverse=True))


def svd(m, compute_uv: bool = True) -> SvdResult | np.ndarray:
    """One-sided Jacobi SVD of a real square matrix, or of each matrix of a
    real ``(..., d, d)`` stack; refuses complex and non-finite input.

    Returns ``SvdResult`` with ``s`` of shape ``(..., d)`` and ``V`` of
    shape ``(..., d, d)``; with ``compute_uv=False`` it returns ``s``
    alone and skips the updates of ``V``, as ``np.linalg.svd`` does.

    A stack is swept lanes-last, each lane by the same vector operations,
    and a lane leaves the sweeps after its first sweep without a rotation,
    so every matrix gets the bits it would get in a stack of one.  One
    matrix (a 2-d input) runs as a stack of one, but its singular values
    alone come wholly from Python floats, by the same operations in the
    same order (:func:`_svd_one`), so they too get the bits of a stack of
    one, without numpy's per-call cost.  A matrix that has not converged
    after ``_MAX_SWEEPS`` sweeps refuses the whole call.  Identical input
    yields byte-identical output.
    """
    a = np.asarray(m)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if np.iscomplexobj(a):
        raise ValidationError("svd takes real matrices")
    if a.ndim == 2 and not compute_uv:
        return _svd_one(a)
    if not np.isfinite(a).all():
        raise ValidationError("matrix has non-finite entries")
    d = a.shape[-1]
    # (d, d, B) lanes-last: column p of every matrix is x[:, p], rows of
    # contiguous lanes; with V, its rows go below those of the matrix, so
    # that one rotation of columns turns both
    x = np.zeros((2 * d if compute_uv else d, d, a.size // (d * d)))
    x[:d] = a.reshape(-1, d, d).transpose(1, 2, 0)
    if compute_uv:
        x[range(d, 2 * d), range(d)] = 1.0
    # exact scaling by the power of two of each matrix's largest entry, only
    # outside the safe range, as LAPACK's xGESVD does (-1022 keeps 2^-e finite)
    e = np.frexp(np.abs(x[:d]).max(axis=(0, 1)))[1]
    outside = np.abs(e) > _SAFE_EXPONENT
    if outside.any():
        e = np.where(outside, np.maximum(e, -1022), 0)
        np.ldexp(x[:d], -e, out=x[:d])

    _sweep_lanes(x)

    sigma = np.sqrt(_row_sum(x[:d] * x[:d]))
    sigma = (_unscaled(sigma, e) if outside.any() else sigma).T
    order = np.argsort(-sigma, axis=-1, kind="stable")
    s = np.take_along_axis(sigma, order, axis=-1).reshape(a.shape[:-1])
    if not compute_uv:
        return s
    right = np.take_along_axis(x[d:].transpose(2, 0, 1), order[:, np.newaxis], axis=-1)
    return SvdResult(s, right.reshape(a.shape))


def invertible(top, low):
    """The GL(d) rule on the extreme singular values ``top >= low`` of one
    matrix or of a stack: ``top > 0`` and ``low / top > INVERTIBILITY_RTOL``."""
    top, low = np.asarray(top), np.asarray(low)
    ratio = np.divide(low, top, out=np.zeros(np.shape(low)), where=top > 0.0)
    return (top > 0.0) & (ratio > INVERTIBILITY_RTOL)


def require_invertible(m, context: str = "matrix") -> SvdResult:
    """Conditioning-based GL(d) membership test of a matrix, or of each
    matrix of a stack; returns the SVD it tested.  A stack's refusal names
    its first singular matrix by its index after ``context``."""
    res = svd(m)
    s = res.singular_values
    ok = invertible(s[..., 0], s[..., -1])
    if not np.all(ok):
        name = context if ok.ndim == 0 else f"{context} {np.argmin(ok)}"
        raise NumericalRefusal(
            f"{name} is numerically singular "
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

    ``d = 2`` has a closed form (:func:`_scaled_2x2`).  For ``3 <= d <
    _LAPACK_FROM``, each matrix is scaled by the power of two of its
    largest entry, and ``sigma_1`` is the square root of the largest
    eigenvalue of the Gram matrix ``A^T A``, from a Jacobi iteration over
    all lanes at once (:func:`_gram_top_eigenvalue`).  Forming ``A^T A``
    costs ``sigma_1`` only a few units in the last place, and the Jacobi
    iteration keeps that accuracy (Demmel-Veselic, SIAM J. Matrix Anal.
    Appl. 13, 1992), also where ``sigma_1 ~ sigma_2``: the trigonometric
    root of the characteristic cubic, tried for ``d = 3``, erred there by
    about ``2e7`` units.  A lane that does not converge is refused, never
    returned.  Larger ``d`` goes to LAPACK's SVD over the stack.
    """
    b = np.asarray(batch)
    d = b.shape[-1]
    if d == 1:
        return np.abs(b[:, 0, 0])
    if d == 2:
        e, _, top = _scaled_2x2(b)
        return np.ldexp(top, e)
    if d >= _LAPACK_FROM:
        return np.linalg.svd(b, compute_uv=False)[:, 0]
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
    itself, not a copy, and ``p = d`` the 1x1 stack of :func:`det_batch`,
    with no gathers.  Otherwise the result is lanes-last: the ``p = 2``
    minors are built from the entry vectors of the stack as ``a d - b c``,
    the operations of :func:`det_batch`, straight into a ``(k, k, B)``
    array whose transposed view is returned.  For ``p >= 3`` each row
    of the compound is one :func:`det_batch` call on the stack of its
    minors, so ``p = 3`` minors get the scaled cofactor expansion.
    """
    b = np.asarray(batch)
    d = b.shape[-1]
    if not 1 <= p <= d:
        raise ValidationError(f"compound order p={p} out of range 1..{d}")
    if p == 1:
        return b
    if p == d:
        return det_batch(b)[:, np.newaxis, np.newaxis]
    basis = np.array(tuple(combinations(range(d), p)))
    if p == 2:
        lanes = b.transpose(1, 2, 0)
        r0, r1 = basis[:, 0, np.newaxis], basis[:, 1, np.newaxis]
        c0, c1 = basis[:, 0], basis[:, 1]
        out = lanes[r0, c0] * lanes[r1, c1] - lanes[r0, c1] * lanes[r1, c0]
    else:
        # one det_batch per row of the compound, over all its minors at once:
        # rows x every column subset is a lanes-last (p, p, k, B) stack
        out = np.empty((len(basis), len(basis), b.shape[0]), dtype=b.dtype)
        lanes, cols = b.transpose(1, 2, 0), basis.T[np.newaxis]
        for i, rows in enumerate(basis):
            minors = lanes[rows[:, np.newaxis, np.newaxis], cols].reshape(p, p, -1)
            out[i] = det_batch(minors.transpose(2, 0, 1)).reshape(len(basis), -1)
    return out.transpose(2, 0, 1)


def _lanes(f) -> np.ndarray:
    """A ``(B, k, k)`` factor stack as a C-contiguous ``(k, k, B)`` float
    array: its own memory if it arrives lanes-last, else a copy."""
    return np.ascontiguousarray(np.asarray(f).transpose(1, 2, 0), dtype=np.float64)


def _times(prod, lanes: np.ndarray) -> np.ndarray:
    """One step of the running product: ``F P`` for a lanes-last factor
    ``F`` and product ``P``, each entry ``sum_j f_ij p_jk`` added in order
    of ``j``, and a 1x1 ``F`` (the top order) one plain multiply; the first
    step (``prod`` None) is a copy of ``F``."""
    if prod is None:
        return lanes.copy()
    return lanes * prod if lanes.shape[0] == 1 else np.einsum("ijb,jkb->ikb", lanes, prod)


def _rescale(prod: np.ndarray, step: int | None):
    """Scales a lanes-last product in place by ``2^-e``, ``e`` per lane the
    exponent that brings its Frobenius norm into ``[1/2, 1)``, and returns
    ``e``; where the squared norm alone leaves the float range, ``e`` is
    read off a copy scaled by the power of two of the largest entry.  Given
    the ``step`` that made the product, it refuses a matrix with an entry
    not finite or none nonzero; at a block end (``step`` None) it returns
    None where an entry is not finite or the largest is below ``_TINY``."""
    fro2 = np.einsum("ijb,ijb->b", prod, prod)
    in_range, shift = (fro2 >= _TINY) & (fro2 < np.inf), 0
    if not in_range.all():
        top = np.max(np.abs(prod), axis=(0, 1))
        ok = np.isfinite(top) & (top > 0.0 if step is not None else top >= _TINY)
        if not np.all(ok):
            if step is None:
                return None
            # the refusal names (and keeps) its first matrix not ok
            i = int(np.argmin(ok))
            exc = NumericalRefusal(
                f"degenerate factor in scaled product at step {step}, matrix {i}")
            exc.matrix = i
            raise exc
        shift = np.where(in_range, 0, np.frexp(top)[1])
        scaled = np.ldexp(prod, -shift)
        fro2 = np.einsum("ijb,ijb->b", scaled, scaled)
    e = np.frexp(np.sqrt(fro2))[1] + shift
    np.ldexp(prod, -e, out=prod)
    return e


def scaled_product(factor, n: int, checkpoints=None, times=None) -> np.ndarray:
    """Log-norms of the renormalised running product ``F_n ... F_1`` of
    ``n`` factor stacks.

    ``factor(j)`` returns the real ``(B, k, k)`` stack ``F_j`` of step ``j
    = 1..n``.  The product is scaled by the power of two ``2^-e`` that
    brings its Frobenius norm into ``[1/2, 1)``, and ``e`` is added to an
    integer exponent sum; the scaling is exact, so no rounding and no
    logarithm is spent on it.  The spectral norm is taken only at the
    checkpoints, where ``log ||F_c ... F_1||`` is ``e_sum * log 2 + log
    ||scaled product||``.

    The scaling happens at the end of each block of ``_BLOCK_STEPS`` steps,
    cut short at every checkpoint, not after every step, and a block keeps
    no factor stack: only the product at its start.  While entries stay
    normal floats, a power of two commutes with each rounding of the
    multiply, so a block ends with the bits of scaling after every step;
    only an entry that is subnormal in one of the two, far below the
    product's norm, can round differently.  A product is judged by its
    entries, never by their squares (:func:`_rescale`).  A block that ends
    with an entry not finite (an overflow or a NaN persists) or with its
    largest entry below the least normal float (a zero persists, and a
    subnormal product has lost bits) is replayed from its start one step at
    a time, asking ``factor`` again for each of its steps: factors of norm
    ``2^350`` keep their bits, and a step whose product has an entry not
    finite or none nonzero is refused, naming the step and the first such
    matrix of the stack (also kept as the refusal's ``matrix`` attribute).
    Block lengths follow the checkpoints alone, never ``B``; where factor
    entries are finite and below about ``1e300``, neither decides whether a
    run is refused.  An overflow, in the multiply or in ``factor``, raises
    no warning (``np.errstate``): it is refused at its step.

    ``factor`` is called once per step, in order, and once more per step
    of a replayed block.  It must return the same bits on every call for
    a step; the stacks it returns are never changed in place.

    ``times(prod, f)``, the caller's multiply, returns ``F P`` for every
    step after the first as a new C-contiguous ``(k, k, B)`` array, ``f``
    as ``factor`` returned it.  It never writes into ``prod``, which a
    replayed block restarts from, and gives the same bits on every call
    for a step.  The default, and the first step, is :func:`_times`.

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
    increasing, ending at ``n``), shape ``(len(checkpoints), B)``.
    """
    if n < 1:
        raise ValidationError("product length must be at least 1")
    cps = tuple(checkpoints) if checkpoints is not None else (n,)
    if list(cps) != sorted(set(cps)) or cps[-1] != n or cps[0] < 1:
        raise ValidationError("checkpoints must be increasing and end at n")
    rows, expo, start, prod, first = [], np.int64(0), None, None, 1

    def step(prod, j):
        f = factor(j)
        return _times(prod, _lanes(f)) if prod is None or times is None else times(prod, f)

    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, n + 1):
            prod = step(prod, j)
            if j - first + 1 < _BLOCK_STEPS and j not in cps:
                continue
            e = _rescale(prod, j if j == first else None)
            if e is None:
                # the block left the range: replay it one step at a time from its start
                prod, e = start, 0
                for i in range(first, j + 1):
                    prod = step(prod, i)
                    e = e + _rescale(prod, i)
            expo, start, first = expo + e, prod, j + 1
            if j in cps:
                rows.append(expo * _LN2 + np.log(spectral_norm_batch(prod.transpose(2, 0, 1))))
    return np.array(rows)

