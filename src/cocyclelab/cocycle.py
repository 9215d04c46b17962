"""Shift bases, analytic cocycle families, and finite-scale exponents.

A family is a map ``(x, E) -> A(x, E)`` in GL(d) over a torus shift.
Scale-``n`` products go through :func:`linalg.scaled_product`, which
rescales by exact powers of two at the end of each block of 8 steps and
at every checkpoint, so orbits of length 10^5+ never overflow.  Every
kind depends on ``x`` only through the phase ``t(x) = sum x_i``, so a base
point is its phasor ``zeta = e^{2 pi i t}`` throughout: ``evaluate_batch``
and ``orbit_lognorms`` take 1-d phasors, whose powers give the harmonics.
An orbit pass multiplies the start phasors by one rotation ``e^{2 pi i (j
Omega mod 1)}``, ``Omega = sum omega_i``, per step, with ``j Omega mod 1``
reduced exactly (:meth:`ShiftBase.rotation`), so no phase error grows
with ``j`` either.  A pass of few lanes evaluates several steps per call
(``STACK_POINTS``), each step's phasors formed alone, with the bits of one
step per call.

Each step multiplies by :func:`linalg.scaled_product`'s generic ``F P``,
but the ``p = 1`` pass of the Schrödinger kind steps by its three-term
recurrence (:func:`_recurrence_times`), with the same log-norms, bit for bit.

Per-point log singular values come from the top-growth of the exterior
power (compound) cocycles: ``log sigma_1...sigma_p = log ||Lambda^p
A^(n)_x||``, and consecutive differences recover each ``log sigma_j``.
This is numerically stable where an SVD of the assembled product is not:
the small singular values of a long product are unrecoverable directly.
The top order ``p = d`` is the same product over the 1x1 stacks of
``det A_j``, which reads ``sum_j log |det A_j|``.

Energies stack into the batch: ``evaluate_batch`` takes one ``E`` or a
1-d stack of ``K`` and returns ``K * B`` (energy, point) lanes, lane
``k * B + b`` for energy ``k`` at point ``b``, so ``orbit_lognorms`` and
``exponent_ladder`` run ``K`` energies as lanes of one product and the
energy-free part of a factor (the potential of the Schrödinger kind) is
computed once per point.  Every kind writes its stack lanes-last (see
:mod:`linalg`).

Finite-scale exponents are averages of the per-point profiles over the
``m^nu`` grid of ``T^nu``, which is ``m`` phases (:func:`grid_phasors`);
reductions use a fixed-order pairwise tree so results do not depend on
how grid work is scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .diophantine import rational_witness
from .errors import NumericalRefusal, ValidationError
from .util import pairwise_mean

GOLDEN_MEAN = (np.sqrt(5.0) - 1.0) / 2.0
#: default two-torus shift: componentwise fractional parts of sqrt(2), sqrt(3)
DEFAULT_OMEGA_2D = (np.sqrt(2.0) - 1.0, np.sqrt(3.0) - 1.0)

#: documented quadrature tolerance of grid averages at the default grids
QUADRATURE_TOL = 1e-6

#: phases of the grid (:func:`grid_phasors`) on which construction checks invertibility
CHECK_GRID = 64

#: points per factor evaluation of an orbit pass, which bound its memory: more
#: lanes run in passes of whole energies, fewer evaluate several steps per call;
#: lanes and steps are independent, so neither chunking moves a bit
STACK_POINTS = 1 << 13


@dataclass(frozen=True)
class ShiftBase:
    """Torus shift ``x -> x + omega (mod 1)`` on ``T^nu``; it moves the
    phase ``t(x) = sum x_i`` by ``Omega = sum omega_i`` per step."""

    omega: tuple[float, ...]
    dio_exponent: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "omega", tuple(float(w) for w in np.atleast_1d(self.omega)))
        if len(self.omega) < 1:
            raise ValidationError("shift needs at least one frequency")
        if self.dio_exponent <= 1.0:
            raise ValidationError("dio_exponent must exceed 1")
        for i, w in enumerate(self.omega):
            if not 0.0 < w < 1.0:
                raise ValidationError(f"omega[{i}]={w} outside (0,1)")
        # every kind sees only the phase, which a rational Omega keeps on a finite cycle
        num, den = self._total_rotation
        named = [(f"omega[{i}]={w}", w) for i, w in enumerate(self.omega)]
        for name, w in named + [(f"total rotation Omega={sum(self.omega)!r} mod 1", num / den)]:
            witness = rational_witness(w)
            if witness is not None:
                p, q = witness
                raise ValidationError(f"{name} is rational to working precision ({p}/{q})")

    @property
    def nu(self) -> int:
        return len(self.omega)

    @property
    def _total_rotation(self) -> tuple[int, int]:
        """``Omega mod 1`` as an exact ratio ``(num, den)``: each ``omega_i``
        is an integer over a power of two (``float.as_integer_ratio``)."""
        ratios = [w.as_integer_ratio() for w in self.omega]
        den = max(q for _, q in ratios)
        return sum(p * (den // q) for p, q in ratios) % den, den

    def rotation(self, steps) -> np.ndarray:
        """``w_j = e^{2 pi i (j Omega mod 1)}`` at each integer step ``j`` of
        ``steps``, with ``j Omega mod 1`` reduced exactly into ``[-1/2,
        1/2)`` and rounded once, at a cost that does not grow with ``j``."""
        num, den = self._total_rotation
        steps = (np.array(steps, dtype=object) * num + den // 2) % den - den // 2
        return np.exp(2j * np.pi * (steps / den).astype(np.float64))


def golden_base(dio_exponent: float = 2.0) -> ShiftBase:
    return ShiftBase(omega=(GOLDEN_MEAN,), dio_exponent=dio_exponent)


def grid_phasors(m: int) -> np.ndarray:
    """Phasors ``e^{2 pi i k/m}``, ``k < m``: the uniform ``m^nu`` grid of
    ``T^nu`` seen through the phase, for every ``nu``.  Point ``(k_1, ...,
    k_nu) / m`` has phase ``sum k_i / m``, and ``sum k_i mod m`` takes each
    residue ``m^(nu-1)`` times (for fixed ``k_2..k_nu``, ``k_1`` runs over
    them once), so grid means, deviation fractions and suprema over the
    ``m^nu`` points are those over these ``m`` phases."""
    if m < 1:
        raise ValidationError("grid size must be positive")
    return np.exp(2j * np.pi * (np.arange(m, dtype=np.float64) / m))


def _fourier_series(cos_coeffs, sin_coeffs) -> tuple[np.ndarray, tuple]:
    """``sum_k cos_coeffs[..., k] cos(2 pi k t) + sin_coeffs[..., k-1] sin(2
    pi k t)``, listed once for :func:`_fourier`: the constant term of each
    row (the leading axes flattened) and the nonzero ``(k, sine, row,
    coeff)`` terms by harmonic, cosine first, in the order a row adds them."""
    cos_rows = np.reshape(cos_coeffs, (-1, np.shape(cos_coeffs)[-1]))
    sin_rows = np.reshape(sin_coeffs, (len(cos_rows), -1))
    terms = tuple((k, sine, row, float(c))
                  for k in range(1, max(cos_rows.shape[1], sin_rows.shape[1] + 1))
                  for sine, coeffs in ((False, cos_rows[:, k:k + 1]), (True, sin_rows[:, k - 1:k]))
                  for row, c in enumerate(coeffs.ravel()) if c)
    return cos_rows[:, :1].copy(), terms


def _fourier(zeta: np.ndarray, series) -> np.ndarray:
    """A :func:`_fourier_series` at 1-d phasors ``zeta = e^{2 pi i t}``,
    shape ``(rows, zeta.size)``: ``Re`` or ``Im`` of ``zeta^k`` shared by
    every row, which adds one elementwise product per term, as its own
    series would."""
    const, terms = series
    out = np.empty((len(const), zeta.size))
    out[:] = const
    rows, term, power, k_power = list(out), np.empty(zeta.size), zeta, 1
    for k, sine, row, c in terms:
        while k_power < k:
            power, k_power = power * zeta, k_power + 1
        rows[row] += np.multiply(power.imag if sine else power.real, c, out=term)
    return out


def _recurrence_times(prod: np.ndarray, f: np.ndarray) -> np.ndarray:
    """``F P`` for Schrödinger factors ``F = [[a, -1], [1, 0]]`` (``a``
    read from the evaluated stack) and a lanes-last product ``P``: rows ``a
    P[0] - P[1]`` and ``P[0]``, the recurrence ``psi_{n+1} = (v_n - E)
    psi_n - psi_{n-1}`` (Goldstein-Schlag, Ann. of Math. 154, 2001).  The
    generic step's products with ``+-1`` and 0 are exact, so the two differ
    only in the sign of a zero, which no norm reads, or where ``P`` has an
    entry not finite, which both refuse.  ``P`` is never written."""
    out = np.empty_like(prod)
    np.multiply(f[:, 0, 0], prod[0], out=out[0])
    np.subtract(out[0], prod[1], out=out[0])
    out[1] = prod[0]
    return out


def _energies(E) -> np.ndarray:
    """One energy or a 1-d stack of them, as a 1-d float array."""
    energies = np.atleast_1d(np.asarray(E, dtype=np.float64))
    if energies.ndim != 1 or energies.size < 1:
        raise ValidationError("E must be a number or a non-empty 1-d array")
    return energies


@dataclass(frozen=True)
class CocycleFamily:
    """Analytic GL(d) cocycle family over a torus shift.

    A kind defines only :meth:`evaluate_batch`; everything else
    (products, exponents, profiles) is generic, apart from the Schrödinger
    kind's step multiply at ``p = 1`` (:meth:`_times`).
    ``param_values`` is the declared parameter grid, used for
    construction-time checks and CLI sweeps; operations accept any ``E``
    in its range.  Construction checks GL(d) on the ``CHECK_GRID`` phases
    only, not between them."""

    base: ShiftBase
    dim: int
    param_values: np.ndarray = field(default_factory=lambda: np.array([0.0]))

    def __post_init__(self):
        object.__setattr__(self, "param_values", np.asarray(self.param_values, dtype=np.float64))
        if self.dim < 1:
            raise ValidationError("dimension must be at least 1")
        if self.param_values.ndim != 1 or self.param_values.size < 1:
            raise ValidationError("param_values must be a non-empty 1-d grid")
        if np.any(np.diff(self.param_values) < 0):
            raise ValidationError("param_values must be sorted")
        self._validate_invertibility()

    # -- kind-specific surface ------------------------------------------------

    def evaluate_batch(self, zeta: np.ndarray, E) -> np.ndarray:
        """``A(x, E)`` at ``B`` points given by their phasors ``zeta``
        and one energy or a 1-d stack of ``K``: shape ``(K * B, d, d)``,
        lane ``k * B + b`` for energy ``k`` at point ``b``.  The stack is
        lanes-last, the transposed view of a C-contiguous ``(d, d, K * B)``
        array; entries are elementwise arithmetic on ``zeta``."""
        raise NotImplementedError

    def _times(self, p: int):
        """The step multiply of the order-``p`` pass, the ``times`` of
        :func:`linalg.scaled_product`: None, its generic one, unless a kind
        knows the form of its factors."""
        return None

    # -- generic machinery ----------------------------------------------------

    def _validate_invertibility(self):
        """GL(d) at each declared ``E`` on the ``CHECK_GRID`` phases only."""
        zeta = grid_phasors(CHECK_GRID)
        for E in self.param_values:
            with np.errstate(over="ignore", invalid="ignore"):
                mats = self.evaluate_batch(zeta, float(E))
            bad = ~np.all(np.isfinite(mats), axis=(1, 2))
            problem = "has non-finite entries"
            if not np.any(bad):
                top, low = linalg.extreme_singular_values_batch(mats)
                bad = ~linalg.invertible(top, low)
                problem = "is numerically singular"
            if np.any(bad):
                i = int(np.argmax(bad))
                raise ValidationError(f"family {problem} at t={i / CHECK_GRID}, E={E}")

    def orbit_lognorms(self, E, zeta: np.ndarray, n: int, p: int = 1,
                       checkpoints: tuple[int, ...] | None = None) -> np.ndarray:
        """``log || Lambda^p A^(n)_x(E) ||`` for every (energy, point) lane.

        ``zeta`` holds the phasors ``e^{2 pi i t(x)}`` of ``B`` start points
        and ``E`` one energy or a 1-d array of ``K``; lane ``k * B + b`` is
        energy ``k`` at point ``b``.  Returns shape ``(len(checkpoints), K *
        B)``; ``checkpoints`` defaults to ``(n,)`` and must be increasing
        with final entry ``n``.  Every order is :func:`linalg.scaled_product`
        of the compound factors; for ``p = d`` they are the 1x1 stacks of
        ``det A_j``.

        Factors come ``S = min(n, STACK_POINTS // (K * B))`` steps (at least
        one) per ``evaluate_batch`` and ``compound_batch`` call, never past
        ``n``; step ``j``'s phasors are ``zeta * w_j`` formed alone, so the bits
        do not depend on ``S``.  A replayed block that asks for steps of an
        earlier chunk evaluates them again.
        """
        zeta = np.asarray(zeta)
        if zeta.ndim != 1 or not np.iscomplexobj(zeta):
            raise ValidationError("start points must be a 1-d array of phasors")
        energies = _energies(E)
        nb, rot = zeta.size, self.base.rotation(range(1, n + 1))
        per_pass = max(1, STACK_POINTS // nb)
        out = []
        for start in range(0, energies.size, per_pass):
            chunk = energies[start:start + per_pass]
            steps = max(1, min(n, STACK_POINTS // (chunk.size * nb)))
            points, first, held = np.empty((steps, nb), np.result_type(zeta, rot)), 0, ()

            def factor(j):
                # steps j .. j + S - 1 of the exact orbit in one call, each
                # step's phasors formed alone, so a step has the same bits in
                # every chunk; held as (S, k, k, K * B) lanes-last stacks
                nonlocal first, held
                if not first <= j < first + len(held):
                    first, s = j, min(steps, n + 1 - j)
                    for i in range(s):
                        np.multiply(zeta, rot[j - 1 + i], out=points[i])
                    stack = linalg.compound_batch(self.evaluate_batch(points[:s].ravel(), chunk), p)
                    k = stack.shape[-1]
                    held = np.ascontiguousarray(stack.transpose(1, 2, 0).reshape(
                        k, k, chunk.size, s, nb).transpose(3, 0, 1, 2, 4)).reshape(s, k, k, -1)
                return held[j - first].transpose(2, 0, 1)

            try:
                out.append(linalg.scaled_product(factor, n, checkpoints, self._times(p)))
            except NumericalRefusal as exc:
                raise NumericalRefusal(f"{exc} (E={chunk[exc.matrix // nb]})") from None
        return np.concatenate(out, axis=1)

    def finite_scale_exponents(self, E, n: int, m: int) -> np.ndarray:
        """Grid-averaged exponents ``lambda_{j,n}(E)``, j = 1..d (shape
        ``(K, d)`` for an array of ``K`` energies)."""
        return self.exponent_ladder(E, (n,), m)[n]

    def exponent_ladder(self, E, scales, m: int, j: int | None = None) -> dict[int, np.ndarray]:
        """``finite_scale_exponents`` at every scale of an increasing ladder,
        from a single orbit pass per compound order.  With an array of
        ``K`` energies each value gains a leading energy axis.  With ``j``,
        each value is ``lambda_{j,n}`` alone, from orders ``j - 1`` and ``j``."""
        scales = tuple(sorted(set(int(s) for s in scales)))
        if not scales or scales[0] < 1:
            raise ValidationError("scales must be positive")
        if j is not None and not 1 <= j <= self.dim:
            raise ValidationError(f"exponent index j={j} out of range 1..{self.dim}")
        zeta = grid_phasors(m)
        partial = np.zeros((len(scales), np.size(E), self.dim + 1), dtype=np.float64)
        for p in range(1, self.dim + 1) if j is None else range(max(j - 1, 1), j + 1):
            lognorms = self.orbit_lognorms(E, zeta, scales[-1], p=p, checkpoints=scales)
            lognorms = lognorms.reshape(len(scales), -1, m)
            for i, k in np.ndindex(*lognorms.shape[:2]):
                partial[i, k, p] = pairwise_mean(lognorms[i, k])
            del lognorms  # not held while the next order's pass runs
        cols = slice(None) if j is None else j - 1
        ladder = {n: (np.diff(partial[i]) / n)[:, cols] for i, n in enumerate(scales)}
        return ladder if np.ndim(E) else {n: v[0] for n, v in ladder.items()}

    def one_step_log_extremes(self, E: float, m: int) -> tuple[float, float]:
        """Grid maxima of ``log||A||`` and ``log||A^-1||`` at one step."""
        top, low = linalg.extreme_singular_values_batch(self.evaluate_batch(grid_phasors(m), E))
        return float(np.max(np.log(top))), float(np.max(-np.log(low)))


# -- concrete kinds ------------------------------------------------------------


@dataclass(frozen=True)
class DiagonalExpFamily(CocycleFamily):
    """``diag_j exp(x_amp[j] * cos(2 pi t(x)) + e_amp[j] * E)``.

    With opposite-sign amplitude pairs this is the canonical
    determinant-one toy family; with ``x_amp = 0`` the exponents are
    linear in ``E``, which pins the regularity regression slope at 1.
    """

    x_amp: np.ndarray = field(default_factory=lambda: np.zeros(2))
    e_amp: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self):
        xa = np.asarray(self.x_amp, dtype=np.float64)
        ea = np.asarray(self.e_amp, dtype=np.float64)
        if xa.shape != (self.dim,) or ea.shape != (self.dim,):
            raise ValidationError("amplitude arrays must have length dim")
        object.__setattr__(self, "x_amp", xa)
        object.__setattr__(self, "e_amp", ea)
        super().__post_init__()

    def evaluate_batch(self, zeta, E):
        # exponents[j, k, b] for diagonal entry j, energy k, point b
        exponents = (
            self.x_amp[:, np.newaxis, np.newaxis] * zeta.real
            + self.e_amp[:, np.newaxis, np.newaxis] * _energies(E)[:, np.newaxis]
        )
        diagonal = np.exp(exponents).reshape(self.dim, -1)
        out = np.zeros((self.dim, self.dim, diagonal.shape[1]), dtype=np.float64)
        idx = np.arange(self.dim)
        out[idx, idx] = diagonal
        return out.transpose(2, 0, 1)


@dataclass(frozen=True)
class TrigPolyFamily(CocycleFamily):
    """Entrywise trigonometric polynomials in the scalar phase ``t(x)``:
    ``A[i,j](x) = sum_k cos_coeffs[i,j,k] cos(2 pi k t) + sin terms``.
    Parameter-independent; degree 0 is a constant matrix."""

    cos_coeffs: np.ndarray = field(default_factory=lambda: np.zeros((2, 2, 1)))
    sin_coeffs: np.ndarray = field(default_factory=lambda: np.zeros((2, 2, 0)))
    #: the entries' series, listed once (:func:`_fourier_series`)
    _series: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        cc = np.asarray(self.cos_coeffs, dtype=np.float64)
        sc = np.asarray(self.sin_coeffs, dtype=np.float64)
        if cc.ndim != 3 or cc.shape[:2] != (self.dim, self.dim) or cc.shape[2] < 1:
            raise ValidationError("cos_coeffs must have shape (dim, dim, degree+1)")
        if sc.ndim != 3 or sc.shape[:2] != (self.dim, self.dim):
            raise ValidationError("sin_coeffs must have shape (dim, dim, degree)")
        object.__setattr__(self, "cos_coeffs", cc)
        object.__setattr__(self, "sin_coeffs", sc)
        object.__setattr__(self, "_series", _fourier_series(cc, sc))
        super().__post_init__()

    def evaluate_batch(self, zeta, E):
        lanes = _fourier(zeta, self._series).reshape(self.dim, self.dim, -1)
        k = _energies(E).size
        return (lanes if k == 1 else np.tile(lanes, k)).transpose(2, 0, 1)


@dataclass(frozen=True)
class SchrodingerFamily(CocycleFamily):
    """One-step transfer matrix ``[[v(x) - E, -1], [1, 0]]`` with sampling
    ``v = coupling * (cos/sin series in t(x))``; always 2x2 with unit
    determinant.  Default sampling is ``2 cos(2 pi t)``."""

    coupling: float = 1.0
    sampling_cos: np.ndarray = field(default_factory=lambda: np.array([0.0, 2.0]))
    sampling_sin: np.ndarray = field(default_factory=lambda: np.zeros(0))
    #: the sampling's series, listed once (:func:`_fourier_series`)
    _series: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim != 2:
            raise ValidationError("schrodinger kind requires dim = 2")
        object.__setattr__(
            self, "sampling_cos", np.asarray(self.sampling_cos, dtype=np.float64)
        )
        object.__setattr__(
            self, "sampling_sin", np.asarray(self.sampling_sin, dtype=np.float64)
        )
        if self.sampling_cos.size < 1:
            raise ValidationError("sampling_cos needs at least its constant term")
        object.__setattr__(self, "_series", _fourier_series(self.sampling_cos, self.sampling_sin))
        super().__post_init__()

    def _times(self, p: int):
        # F = [[a, -1], [1, 0]] steps as its recurrence at p = 1; p = 2 is det F
        return _recurrence_times if p == 1 else None

    def evaluate_batch(self, zeta, E):
        v = self.coupling * _fourier(zeta, self._series)[0]
        energies = _energies(E)
        out = np.empty((2, 2, energies.size, v.size), dtype=np.float64)
        np.subtract(v, energies[:, np.newaxis], out=out[0, 0])
        out[0, 1] = -1.0
        out[1, 0] = 1.0
        out[1, 1] = 0.0
        return out.reshape(2, 2, -1).transpose(2, 0, 1)


# -- exponent ladders ----------------------------------------------------------


def check_ladder(ladder: dict[int, np.ndarray], energies, tol: float):
    """Validate spectrum ordering at every ``(E, n)`` slot of a stacked
    ladder.  The sum of each slot needs no check: ``exponent_ladder``'s
    differences telescope, so it is the top order's mean of ``sum_j log
    |det A_j| / n`` for every family."""
    for k, E in enumerate(energies):
        for n in sorted(ladder):
            spec = ladder[n][k]
            if np.any(np.diff(spec) > tol):
                raise ValidationError(f"exponent ordering violated at E={E}, n={n}: {spec}")
