"""Shift bases, analytic cocycle families, and finite-scale exponents.

A family is a map ``(x, E) -> A(x, E)`` in GL(d) over a torus shift.
Scale-``n`` products go through :func:`linalg.scaled_product`, which
renormalizes at every step (scale by the power of two that brings the
Frobenius norm into ``[1/2, 1)``, add its exponent to an integer sum) and
takes the spectral norm only at the reported scales, so orbits of length
10^5+ never overflow.

Per-point log singular values come from the top-growth of the exterior
power (compound) cocycles: ``log sigma_1...sigma_p = log ||Lambda^p
A^(n)_x||``, and consecutive differences recover each ``log sigma_j``.
This is numerically stable where an SVD of the assembled product is not:
the small singular values of a long product are unrecoverable directly.
A QR-accumulation estimator is provided as a cross-check.

Energies stack into the batch: ``evaluate_batch`` takes one ``E`` or a
1-d stack of ``K`` and returns ``K * B`` (energy, point) lanes, lane
``k * B + b`` for energy ``k`` at point ``b``, so ``orbit_lognorms`` and
``exponent_ladder`` run ``K`` energies as lanes of one product and the
energy-free part of a factor (the potential of the Schrödinger kind) is
computed once per point.  Every kind writes its stack lanes-last (see
:mod:`linalg`).

Finite-scale exponents are uniform-grid averages of the per-point
profiles; reductions use a fixed-order pairwise tree so results do not
depend on how grid work is scheduled.
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

#: points per axis of the torus grid on which construction checks invertibility
CHECK_GRID = 64

#: lanes per orbit pass; larger stacks run in chunks of whole energies, and
#: since lanes are independent the chunking moves no bits
STACK_POINTS = 1 << 15


@dataclass(frozen=True)
class ShiftBase:
    """Torus shift ``x -> x + omega (mod 1)`` on ``T^nu``."""

    omega: tuple[float, ...]
    dio_exponent: float = 2.0

    def __post_init__(self):
        if isinstance(self.omega, (int, float)):
            object.__setattr__(self, "omega", (float(self.omega),))
        else:
            object.__setattr__(self, "omega", tuple(float(w) for w in self.omega))
        if len(self.omega) < 1:
            raise ValidationError("shift needs at least one frequency")
        if self.dio_exponent <= 1.0:
            raise ValidationError("dio_exponent must exceed 1")
        for i, w in enumerate(self.omega):
            if not 0.0 < w < 1.0:
                raise ValidationError(f"omega[{i}]={w} outside (0,1)")
            witness = rational_witness(w)
            if witness is not None:
                p, q = witness
                raise ValidationError(
                    f"omega[{i}]={w} is rational to working precision ({p}/{q})"
                )

    @property
    def nu(self) -> int:
        return len(self.omega)

    def orbit_points(self, xs: np.ndarray, step: int) -> np.ndarray:
        """``xs + step*omega`` mod 1 for a ``(B, nu)`` stack of points."""
        w = np.asarray(self.omega)
        return np.mod(xs + step * w[np.newaxis, :], 1.0)


def golden_base(dio_exponent: float = 2.0) -> ShiftBase:
    return ShiftBase(omega=(GOLDEN_MEAN,), dio_exponent=dio_exponent)


def torus_grid(nu: int, m: int) -> np.ndarray:
    """Uniform grid ``{k/m}^nu`` as a ``(m^nu, nu)`` array in a fixed
    (C-order) enumeration."""
    if m < 1:
        raise ValidationError("grid size must be positive")
    axis = np.arange(m, dtype=np.float64) / m
    if nu == 1:
        return axis[:, np.newaxis]
    grids = np.meshgrid(*([axis] * nu), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=-1)


def as_points(x, nu: int) -> np.ndarray:
    """Coerce a point or batch of points into a ``(B, nu)`` array."""
    a = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if a.ndim == 1:
        if nu == 1:
            a = a[:, np.newaxis]
        else:
            if a.shape[0] != nu:
                raise ValidationError(f"point has {a.shape[0]} coords, base has nu={nu}")
            a = a[np.newaxis, :]
    if a.shape[-1] != nu:
        raise ValidationError(f"points have {a.shape[-1]} coords, base has nu={nu}")
    return a


def _phase(pts: np.ndarray) -> np.ndarray:
    # scalar analytic phase t(x) = sum of coordinates; a single harmonic in
    # t averages to zero exactly on any uniform grid
    return np.sum(pts, axis=-1)


def _cos_sin_series(t: np.ndarray, cos_coeffs, sin_coeffs) -> np.ndarray:
    """``sum_k cos_coeffs[..., k] cos(2 pi k t) + sin_coeffs[..., k-1]
    sin(2 pi k t)``, shape ``cos_coeffs.shape[:-1] + t.shape``.

    The constant term is added as it is.  Each other harmonic with a
    nonzero coefficient is computed once and shared by every entry of the
    leading coefficient shape.
    """
    lead = np.shape(cos_coeffs)[:-1]
    expand = (...,) + (np.newaxis,) * t.ndim
    out = np.zeros(lead + t.shape)
    for k in range(np.shape(cos_coeffs)[-1]):
        c = cos_coeffs[..., k]
        if k == 0:
            out += c[expand]
        elif np.any(c):
            out += c[expand] * np.cos(2.0 * np.pi * k * t)
    for k in range(1, np.shape(sin_coeffs)[-1] + 1):
        c = sin_coeffs[..., k - 1]
        if np.any(c):
            out += c[expand] * np.sin(2.0 * np.pi * k * t)
    return out


def _energies(E) -> np.ndarray:
    """One energy or a 1-d stack of them, as a 1-d float array."""
    energies = np.atleast_1d(np.asarray(E, dtype=np.float64))
    if energies.ndim != 1 or energies.size < 1:
        raise ValidationError("E must be a number or a non-empty 1-d array")
    return energies


def _tile_lanes(lanes: np.ndarray, E) -> np.ndarray:
    """An energy-free lanes-last ``(d, d, B)`` value repeated for each
    energy of ``E``, as the ``(K * B, d, d)`` stack of a kind."""
    return np.tile(lanes, _energies(E).size).transpose(2, 0, 1)


@dataclass(frozen=True)
class CocycleFamily:
    """Analytic GL(d) cocycle family over a torus shift.

    Concrete kinds override :meth:`evaluate_batch`; everything else
    (products, exponents, profiles) is generic.  ``param_values`` is the
    declared parameter grid, used for construction-time invertibility
    checks and CLI sweeps; operations accept any ``E`` in its range.
    """

    base: ShiftBase
    dim: int
    param_values: np.ndarray = field(default_factory=lambda: np.array([0.0]))
    beta0: float = 1.0

    def __post_init__(self):
        object.__setattr__(
            self, "param_values", np.asarray(self.param_values, dtype=np.float64)
        )
        if self.dim < 1:
            raise ValidationError("dimension must be at least 1")
        if not 0.0 < self.beta0 <= 1.0:
            raise ValidationError("beta0 must lie in (0, 1]")
        if self.param_values.ndim != 1 or self.param_values.size < 1:
            raise ValidationError("param_values must be a non-empty 1-d grid")
        if np.any(np.diff(self.param_values) < 0):
            raise ValidationError("param_values must be sorted")
        self._validate_invertibility()

    # -- kind-specific surface ------------------------------------------------

    def evaluate_batch(self, pts: np.ndarray, E) -> np.ndarray:
        """``A(x, E)`` for a ``(B, nu)`` point stack and one energy or a
        1-d stack of ``K``: shape ``(K * B, d, d)``, lane ``k * B + b``
        for energy ``k`` at point ``b`` (``K = 1`` for one energy).  The
        stack is lanes-last in memory, the transposed view of a
        C-contiguous ``(d, d, K * B)`` array."""
        raise NotImplementedError

    def e_holder_constant(self) -> float:
        """Constant K with ||A(x,E)-A(x,E')|| <= K * |E-E'|^beta0 over the
        declared parameter range (0 for parameter-free kinds)."""
        raise NotImplementedError

    @property
    def unit_determinant(self) -> bool:
        return False

    # -- generic machinery ----------------------------------------------------

    def _validate_invertibility(self):
        pts = torus_grid(self.base.nu, CHECK_GRID)
        for E in self.param_values:
            with np.errstate(over="ignore", invalid="ignore"):
                mats = self.evaluate_batch(pts, float(E))
            bad = ~np.all(np.isfinite(mats), axis=(1, 2))
            problem = "has non-finite entries"
            if not np.any(bad):
                top, low = linalg.extreme_singular_values_batch(mats)
                bad = ~((top > 0.0) & (low / np.maximum(top, 1e-300) > linalg.INVERTIBILITY_RTOL))
                problem = "is numerically singular"
            if np.any(bad):
                i = int(np.argmax(bad))
                raise ValidationError(
                    f"family {problem} at x={tuple(pts[i].tolist())}, E={E}"
                )

    def orbit_lognorms(
        self,
        E,
        xs: np.ndarray,
        n: int,
        p: int = 1,
        checkpoints: tuple[int, ...] | None = None,
    ) -> np.ndarray:
        """``log || Lambda^p A^(n)_x(E) ||`` for every (energy, point) lane.

        ``E`` is one energy or a 1-d array of ``K``; lane ``k * B + b`` is
        energy ``k`` at point ``b`` of ``xs``.  Returns shape
        ``(len(checkpoints), K * B)``; ``checkpoints`` defaults to ``(n,)``
        and must be increasing with final entry ``n``.
        """
        xs = as_points(xs, self.base.nu)
        energies = _energies(E)
        nb = xs.shape[0]
        per_pass = max(1, STACK_POINTS // nb)
        out = []
        for start in range(0, energies.size, per_pass):
            chunk = energies[start:start + per_pass]
            factors = (
                linalg.compound_batch(
                    self.evaluate_batch(self.base.orbit_points(xs, j), chunk), p)
                for j in range(1, n + 1)
            )
            try:
                out.append(linalg.scaled_product(factors, n, checkpoints))
            except NumericalRefusal as exc:
                raise NumericalRefusal(f"{exc} (E={chunk[exc.matrix // nb]})") from None
        return np.concatenate(out, axis=1)

    def finite_scale_exponents(self, E, n: int, m: int) -> np.ndarray:
        """Grid-averaged exponents ``lambda_{j,n}(E)``, j = 1..d (shape
        ``(K, d)`` for an array of ``K`` energies)."""
        return self.exponent_ladder(E, (n,), m)[n]

    def exponent_ladder(self, E, scales: tuple[int, ...], m: int) -> dict[int, np.ndarray]:
        """``finite_scale_exponents`` at every scale of an increasing ladder,
        from a single orbit pass per compound order.  With an array of
        ``K`` energies each value gains a leading energy axis."""
        scales = tuple(sorted(set(int(s) for s in scales)))
        if not scales or scales[0] < 1:
            raise ValidationError("scales must be positive")
        xs = torus_grid(self.base.nu, m)
        partial = np.zeros((len(scales), np.size(E), self.dim + 1), dtype=np.float64)
        for p in range(1, self.dim + 1):
            lognorms = self.orbit_lognorms(E, xs, scales[-1], p=p, checkpoints=scales)
            lognorms = lognorms.reshape(len(scales), -1, xs.shape[0])
            for i, k in np.ndindex(*lognorms.shape[:2]):
                partial[i, k, p] = pairwise_mean(lognorms[i, k])
        ladder = {n: np.diff(partial[i]) / n for i, n in enumerate(scales)}
        return ladder if np.ndim(E) else {n: v[0] for n, v in ladder.items()}

    def finite_scale_exponents_qr(self, E: float, n: int, m: int) -> np.ndarray:
        """QR-accumulation (diagonal-of-R) cross-check estimator.

        Exact on families whose frames stay axis-aligned; for generic
        families it differs from the compound estimator by an O(1/n)
        frame-alignment correction.
        """
        xs = torus_grid(self.base.nu, m)
        nbatch = xs.shape[0]
        q = np.broadcast_to(np.eye(self.dim), (nbatch, self.dim, self.dim)).copy()
        sums = np.zeros((nbatch, self.dim), dtype=np.float64)
        for j in range(1, n + 1):
            w = np.matmul(self.evaluate_batch(self.base.orbit_points(xs, j), E), q)
            q, r = np.linalg.qr(w)
            diag = np.diagonal(r, axis1=1, axis2=2)
            signs = np.where(diag < 0.0, -1.0, 1.0)
            q = q * signs[:, np.newaxis, :]
            mags = np.abs(diag)
            if np.any(mags <= 0.0):
                raise NumericalRefusal(f"rank collapse in QR accumulation at step {j}")
            sums += np.log(mags)
        return np.array([pairwise_mean(sums[:, j]) for j in range(self.dim)]) / n

    def one_step_log_extremes(self, E: float, m: int) -> tuple[float, float]:
        """Grid maxima of ``log||A||`` and ``log||A^-1||`` at one step."""
        pts = torus_grid(self.base.nu, m)
        top, low = linalg.extreme_singular_values_batch(self.evaluate_batch(pts, E))
        return float(np.max(np.log(top))), float(np.max(-np.log(low)))


# -- concrete kinds ------------------------------------------------------------


@dataclass(frozen=True)
class ConstantFamily(CocycleFamily):
    """x- and E-independent cocycle: a single GL(d) matrix."""

    matrix: np.ndarray = field(default_factory=lambda: np.eye(2))

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.shape != (self.dim, self.dim):
            raise ValidationError(f"matrix shape {m.shape} does not match dim={self.dim}")
        object.__setattr__(self, "matrix", m)
        super().__post_init__()

    def evaluate_batch(self, pts, E):
        return _tile_lanes(np.repeat(self.matrix[..., np.newaxis], pts.shape[0], axis=-1), E)

    def e_holder_constant(self) -> float:
        return 0.0

    @property
    def unit_determinant(self) -> bool:
        return bool(abs(abs(np.linalg.det(self.matrix)) - 1.0) < 1e-12)


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

    def evaluate_batch(self, pts, E):
        # exponents[j, k, b] for diagonal entry j, energy k, point b
        exponents = (
            self.x_amp[:, np.newaxis, np.newaxis] * np.cos(2.0 * np.pi * _phase(pts))
            + self.e_amp[:, np.newaxis, np.newaxis] * _energies(E)[:, np.newaxis]
        )
        diagonal = np.exp(exponents).reshape(self.dim, -1)
        out = np.zeros((self.dim, self.dim, diagonal.shape[1]), dtype=np.float64)
        idx = np.arange(self.dim)
        out[idx, idx] = diagonal
        return out.transpose(2, 0, 1)

    def e_holder_constant(self) -> float:
        if not np.any(self.e_amp):
            return 0.0
        emax = float(np.max(np.abs(self.param_values)))
        peak = float(np.max(np.abs(self.x_amp))) + float(np.max(np.abs(self.e_amp))) * emax
        return float(np.max(np.abs(self.e_amp))) * np.exp(peak)

    @property
    def unit_determinant(self) -> bool:
        return bool(abs(np.sum(self.x_amp)) < 1e-14 and abs(np.sum(self.e_amp)) < 1e-14)


@dataclass(frozen=True)
class TrigPolyFamily(CocycleFamily):
    """Entrywise trigonometric polynomials in the scalar phase ``t(x)``:
    ``A[i,j](x) = sum_k cos_coeffs[i,j,k] cos(2 pi k t) + sin terms``.
    Parameter-independent."""

    cos_coeffs: np.ndarray = field(default_factory=lambda: np.zeros((2, 2, 1)))
    sin_coeffs: np.ndarray = field(default_factory=lambda: np.zeros((2, 2, 0)))

    def __post_init__(self):
        cc = np.asarray(self.cos_coeffs, dtype=np.float64)
        sc = np.asarray(self.sin_coeffs, dtype=np.float64)
        if cc.ndim != 3 or cc.shape[:2] != (self.dim, self.dim):
            raise ValidationError("cos_coeffs must have shape (dim, dim, degree+1)")
        if sc.ndim != 3 or sc.shape[:2] != (self.dim, self.dim):
            raise ValidationError("sin_coeffs must have shape (dim, dim, degree)")
        object.__setattr__(self, "cos_coeffs", cc)
        object.__setattr__(self, "sin_coeffs", sc)
        super().__post_init__()

    def evaluate_batch(self, pts, E):
        return _tile_lanes(_cos_sin_series(_phase(pts), self.cos_coeffs, self.sin_coeffs), E)

    def e_holder_constant(self) -> float:
        return 0.0


@dataclass(frozen=True)
class SchrodingerFamily(CocycleFamily):
    """One-step transfer matrix ``[[v(x) - E, -1], [1, 0]]`` with sampling
    ``v = coupling * (cos/sin series in t(x))``; always 2x2 with unit
    determinant.  Default sampling is ``2 cos(2 pi t)``."""

    coupling: float = 1.0
    sampling_cos: np.ndarray = field(default_factory=lambda: np.array([0.0, 2.0]))
    sampling_sin: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        if self.dim != 2:
            raise ValidationError("schrodinger kind requires dim = 2")
        object.__setattr__(
            self, "sampling_cos", np.asarray(self.sampling_cos, dtype=np.float64)
        )
        object.__setattr__(
            self, "sampling_sin", np.asarray(self.sampling_sin, dtype=np.float64)
        )
        super().__post_init__()

    def potential(self, pts: np.ndarray) -> np.ndarray:
        t = _phase(pts)
        return self.coupling * _cos_sin_series(t, self.sampling_cos, self.sampling_sin)

    def evaluate_batch(self, pts, E):
        v = self.potential(pts)
        energies = _energies(E)
        out = np.empty((2, 2, energies.size, v.size), dtype=np.float64)
        np.subtract(v, energies[:, np.newaxis], out=out[0, 0])
        out[0, 1] = -1.0
        out[1, 0] = 1.0
        out[1, 1] = 0.0
        return out.reshape(2, 2, -1).transpose(2, 0, 1)

    def e_holder_constant(self) -> float:
        return 1.0

    @property
    def unit_determinant(self) -> bool:
        return True


# -- exponent ladders ----------------------------------------------------------


def check_ladder(ladder: dict[int, np.ndarray], energies, unit_determinant: bool, tol: float):
    """Validate spectrum ordering (and the zero-sum rule for unit
    determinant families) at every ``(E, n)`` slot of a stacked ladder."""
    for k, E in enumerate(energies):
        for n in sorted(ladder):
            spec = ladder[n][k]
            if np.any(np.diff(spec) > tol):
                raise ValidationError(f"exponent ordering violated at E={E}, n={n}: {spec}")
            if unit_determinant and abs(float(np.sum(spec))) > tol:
                raise ValidationError(
                    f"zero-sum rule violated at E={E}, n={n}: sum={np.sum(spec)}"
                )
