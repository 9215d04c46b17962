"""Static-schema experiment configuration.

The format is line-oriented ``section.key = value`` text: trivial to
canonicalize, so a config hash is stable across key order, whitespace,
and comments.  Unknown keys are rejected with their line number; every
run echoes the fully resolved config (defaults included) into its output
headers, and the hash is taken over that resolved form.  Resolution is
concrete: an omitted ``numerics.grid`` becomes 1024 phases for ``nu = 1``
and 64 otherwise (``m`` phases are the ``m^nu`` grid of ``T^nu``).
Tolerances and output precision are not keys: grid averages are held to
``cocycle.QUADRATURE_TOL``, and every number has 17 significant digits.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import cocycle, random_products
from .errors import ConfigError
from .util import dyadic_ladder

_GRID_AUTO = -1  # sentinel: 1024 phases for nu=1, 64 otherwise


def _parse_int(raw: str, key: str, line: int | None) -> int:
    try:
        return int(raw, 0)
    except ValueError:
        raise ConfigError(f"malformed integer for {key}: {raw!r}", line) from None


def _parse_float(raw: str, key: str, line: int | None) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise ConfigError(f"malformed number for {key}: {raw!r}", line) from None
    if not np.isfinite(v):
        raise ConfigError(f"non-finite value for {key}", line)
    return v


# key -> (kind, default, allowed): kind is int, float, str, floats (a list)
# or ints (a list); allowed is None, a tuple of choices, or a range predicate
_SCHEMA: dict[str, tuple[str, object, object]] = {
    "cocycle.kind": ("str", "schrodinger", ("constant", "diagonal-exp", "trig-poly", "schrodinger")),
    "cocycle.dim": ("int", 2, lambda v: v >= 1),
    "cocycle.coupling": ("float", 1.0, None),
    "cocycle.entries": ("floats", (), None),
    "cocycle.x_amp": ("floats", (), None),
    "cocycle.e_amp": ("floats", (), None),
    "cocycle.sampling_cos": ("floats", (0.0, 2.0), None),
    "cocycle.sampling_sin": ("floats", (), None),
    "cocycle.trig_degree": ("int", 1, lambda v: v >= 0),
    "cocycle.trig_cos": ("floats", (), None),
    "cocycle.trig_sin": ("floats", (), None),
    "shift.nu": ("int", 1, lambda v: v >= 1),
    "shift.omega": ("str", "golden", None),
    "shift.dio_exponent": ("float", 2.0, lambda v: v > 1.0),
    "param.E_min": ("float", 0.0, None),
    "param.E_max": ("float", 0.0, None),
    "param.E_count": ("int", 1, lambda v: v >= 1),
    "numerics.grid": ("int", _GRID_AUTO, lambda v: v >= 1 or v == _GRID_AUTO),
    "numerics.n_max": ("int", 1024, lambda v: v >= 1),
    "numerics.seed": ("int", 0, lambda v: 0 <= v < 2**64),
    "output.format": ("str", "csv", ("csv", "json")),
    "output.path": ("str", "", None),
    "ap.mode": ("str", "rank1", ("rank1", "rank2")),
    "ap.thetas": ("floats", (0.7853981633974483, 0.7853981633974483), None),
    "ap.eps_sweep": ("floats", (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6), None),
    "ap.matrix_file": ("str", "", None),
    "ap.mu": ("float", 0.0, None),  # 0 means: use the certified gap
    "ldt.p": ("int", 1, lambda v: v >= 1),
    "ldt.deltas": ("floats", (0.1,), None),
    "ldt.scales": ("ints", (), lambda v: all(s >= 1 for s in v)),  # empty: dyadic 16..n_max
    "ldt.model": ("str", "auto", ("auto", "exp_poly", "stretched")),
    "ldt.k": ("int", 1, lambda v: v >= 1),
    "rates.j": ("int", 1, lambda v: v >= 1),
    "rates.n_min": ("int", 4, lambda v: v >= 2),
    "dichotomy.c1": ("float", 0.05, lambda v: v > 0.0),
    "dichotomy.l0": ("int", 16, lambda v: v >= 2),
    "holder.j": ("int", 1, lambda v: v >= 1),
    "holder.pair_budget": ("int", 24, lambda v: v >= 3),
    "holder.kappa": ("float", 0.05, lambda v: v > 0.0),
    "holder.decades": ("int", 4, lambda v: v >= 3),
    "random.dist": ("str", "rotated_stretch_pair",
                    ("single", "two_rotations", "rotated_stretch_pair",
                     "stretch_or_rotate", "uniform_rotation", "file")),
    "random.matrix": ("floats", (2.0, 0.0, 0.0, 0.5), None),
    "random.angles": ("floats", (0.7, 1.3), None),
    "random.theta": ("float", 0.3, None),
    "random.stretch": ("float", 2.0, None),
    "random.angle": ("float", 1.0, None),
    "random.support_file": ("str", "", None),
    "random.trials": ("int", 400, lambda v: v >= 2),
    "random.scales": ("ints", (), lambda v: all(s >= 1 for s in v)),  # empty: dyadic 8..n_max
    "random.deltas": ("floats", (), None),
    "random.ld_scales": ("ints", (50, 400), lambda v: all(s >= 1 for s in v)),
    "random.c1": ("float", 0.05, lambda v: v > 0.0),
}


def _format_value(kind: str, value) -> str:
    if kind == "float":
        return repr(float(value))
    if kind == "int":
        return str(int(value))
    if kind == "floats":
        return ",".join(repr(float(v)) for v in value)
    if kind == "ints":
        return ",".join(str(int(v)) for v in value)
    return str(value)


@dataclass
class ExperimentConfig:
    """Fully resolved configuration (every schema key has a value)."""

    values: dict[str, object] = field(default_factory=dict)

    def __getitem__(self, key: str):
        return self.values[key]

    def canonical_text(self) -> str:
        lines = []
        for key in sorted(self.values):
            kind = _SCHEMA[key][0]
            lines.append(f"{key} = {_format_value(kind, self.values[key])}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()

    # -- object builders ----------------------------------------------------

    def param_grid(self) -> np.ndarray:
        lo = float(self.values["param.E_min"])
        hi = float(self.values["param.E_max"])
        count = int(self.values["param.E_count"])
        if count == 1:
            return np.array([lo])
        if hi <= lo:
            raise ConfigError("param.E_max must exceed param.E_min when E_count > 1")
        return np.linspace(lo, hi, count)

    def shift_base(self) -> cocycle.ShiftBase:
        nu = int(self.values["shift.nu"])
        raw = str(self.values["shift.omega"]).strip()
        if raw == "golden":
            if nu != 1:
                raise ConfigError("shift.omega = golden requires shift.nu = 1")
            omega = (cocycle.GOLDEN_MEAN,)
        elif raw == "sqrt2-sqrt3":
            if nu != 2:
                raise ConfigError("shift.omega = sqrt2-sqrt3 requires shift.nu = 2")
            omega = cocycle.DEFAULT_OMEGA_2D
        else:
            parts = raw.replace(",", " ").split()
            if len(parts) != nu:
                raise ConfigError(
                    f"shift.omega has {len(parts)} components, shift.nu = {nu}"
                )
            try:
                omega = tuple(float(p) for p in parts)
            except ValueError:
                raise ConfigError(f"malformed shift.omega component in {raw!r}") from None
        return cocycle.ShiftBase(omega=omega, dio_exponent=float(self.values["shift.dio_exponent"]))

    def family(self) -> cocycle.CocycleFamily:
        base = self.shift_base()
        kind = self.values["cocycle.kind"]
        dim = int(self.values["cocycle.dim"])
        params = self.param_grid()
        if kind == "diagonal-exp":
            x_amp = self.values["cocycle.x_amp"] or (0.0,) * dim
            e_amp = self.values["cocycle.e_amp"] or (0.0,) * dim
            if len(x_amp) != dim or len(e_amp) != dim:
                raise ConfigError("cocycle.x_amp / e_amp must have dim entries")
            return cocycle.DiagonalExpFamily(
                base=base, dim=dim, param_values=params,
                x_amp=np.array(x_amp), e_amp=np.array(e_amp),
            )
        if kind in ("constant", "trig-poly"):
            # a constant matrix is the degree-0 trigonometric polynomial
            if kind == "constant":
                deg, cos_key, sin_flat = 0, "cocycle.entries", ()
                cos_flat = self.values[cos_key] or tuple(np.eye(dim).reshape(-1))
            else:
                deg, cos_key = int(self.values["cocycle.trig_degree"]), "cocycle.trig_cos"
                cos_flat = self.values[cos_key]
                sin_flat = self.values["cocycle.trig_sin"] or (0.0,) * (dim * dim * deg)
            want_cos = dim * dim * (deg + 1)
            want_sin = dim * dim * deg
            if len(cos_flat) != want_cos:
                raise ConfigError(
                    f"{cos_key} needs {want_cos} values, got {len(cos_flat)}"
                )
            if len(sin_flat) != want_sin:
                raise ConfigError(
                    f"cocycle.trig_sin needs {want_sin} values, got {len(sin_flat)}"
                )
            return cocycle.TrigPolyFamily(
                base=base, dim=dim, param_values=params,
                cos_coeffs=np.array(cos_flat).reshape(dim, dim, deg + 1),
                sin_coeffs=np.array(sin_flat).reshape(dim, dim, deg),
            )
        # schrodinger
        if dim != 2:
            raise ConfigError("cocycle.kind = schrodinger requires cocycle.dim = 2")
        return cocycle.SchrodingerFamily(
            base=base, dim=2, param_values=params,
            coupling=float(self.values["cocycle.coupling"]),
            sampling_cos=np.array(self.values["cocycle.sampling_cos"]),
            sampling_sin=np.array(self.values["cocycle.sampling_sin"]),
        )

    def distribution(self) -> random_products.MatrixDistribution:
        seed = int(self.values["numerics.seed"])
        name = self.values["random.dist"]
        if name == "single":
            ent = self.values["random.matrix"]
            d = int(round(len(ent) ** 0.5))
            if d * d != len(ent):
                raise ConfigError("random.matrix must hold a square matrix")
            return random_products.single_matrix(
                np.array(ent).reshape(d, d), seed=seed
            )
        if name == "two_rotations":
            angles = self.values["random.angles"]
            if len(angles) != 2:
                raise ConfigError("random.angles needs exactly two angles")
            return random_products.two_rotations(angles[0], angles[1], seed=seed)
        if name == "rotated_stretch_pair":
            return random_products.rotated_stretch_pair(
                float(self.values["random.theta"]),
                float(self.values["random.stretch"]),
                seed=seed,
            )
        if name == "stretch_or_rotate":
            return random_products.stretch_or_rotate(
                float(self.values["random.stretch"]),
                float(self.values["random.angle"]),
                seed=seed,
            )
        if name == "uniform_rotation":
            return random_products.uniform_rotation(seed=seed)
        path = str(self.values["random.support_file"])
        if not path:
            raise ConfigError("random.dist = file requires random.support_file")
        support = read_support_file(path)
        d = support[0][0].shape[0]
        return random_products.MatrixDistribution(dim=d, seed=seed, support=tuple(support))

    def dyadic_scales(self, n_min: int = 16) -> tuple[int, ...]:
        scales = dyadic_ladder(n_min, int(self.values["numerics.n_max"]))
        if len(scales) < 2:
            raise ConfigError(f"numerics.n_max too small for a ladder from {n_min}")
        return scales


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate; first offending key/value is named with its
    line number."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        key, _, raw_val = line.partition("=")
        key = key.strip()
        raw_val = raw_val.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        kind, _, allowed = _SCHEMA[key]
        if kind == "int":
            val: object = _parse_int(raw_val, key, lineno)
        elif kind == "float":
            val = _parse_float(raw_val, key, lineno)
        elif kind in ("floats", "ints"):  # comma- or space-separated, possibly empty
            parse = _parse_float if kind == "floats" else _parse_int
            val = tuple(parse(tok, key, lineno) for tok in raw_val.replace(",", " ").split())
        else:
            val = " ".join(raw_val.split())
        if isinstance(allowed, tuple) and val not in allowed:
            raise ConfigError(
                f"value {val!r} for {key} not in {sorted(allowed)}", lineno
            )
        if callable(allowed) and not allowed(val):
            raise ConfigError(f"value {val!r} for {key} out of range", lineno)
        values[key] = val
    for key, (kind, default, _) in _SCHEMA.items():
        values.setdefault(key, default)
    # resolve grid "auto" so the echoed config is fully concrete
    if values["numerics.grid"] == _GRID_AUTO:
        values["numerics.grid"] = 1024 if values["shift.nu"] == 1 else 64
    return ExperimentConfig(values=values)


def parse_config_file(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None


def _read_blocks(path: str, kind: str, weighted: bool = False):
    """``(matrix, probability)`` per block of a text file.  Blocks are
    separated by blank lines and ``#`` lines are comments; a block is the
    rows of a square matrix of whitespace-separated decimals, preceded by
    its probability line when ``weighted`` (``None`` otherwise).  Every
    matrix must have the same dimension and there must be at least one."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {kind} file: {exc}") from None
    out = []
    dim = None
    for bi, block in enumerate(b for b in text.split("\n\n") if b.strip()):
        lines = [l.strip() for l in block.splitlines()]
        lines = [l for l in lines if l and not l.startswith("#")]
        if not lines:
            continue
        if weighted and len(lines) < 2:
            raise ConfigError(f"{kind} block {bi} needs a probability and a matrix")
        try:
            prob = float(lines.pop(0)) if weighted else None
            rows = [[float(tok) for tok in line.split()] for line in lines]
        except ValueError:
            raise ConfigError(f"malformed number in {kind} block {bi}") from None
        width = len(rows[0])
        if any(len(r) != width for r in rows) or len(rows) != width:
            raise ConfigError(f"{kind} block {bi} is not square")
        if dim is None:
            dim = width
        elif width != dim:
            raise ConfigError(f"{kind} block {bi} has dimension {width}, expected {dim}")
        out.append((np.array(rows, dtype=np.float64), prob))
    if not out:
        raise ConfigError(f"{kind} file holds no matrices")
    return out


def read_matrix_blocks(path: str) -> list[np.ndarray]:
    """Matrices from a text file, one per block (see :func:`_read_blocks`)."""
    return [m for m, _ in _read_blocks(path, "matrix")]


def read_support_file(path: str) -> list[tuple[np.ndarray, float]]:
    """Finite-support distribution file: per block, first line is the
    probability, remaining lines the matrix rows."""
    return _read_blocks(path, "support", weighted=True)
