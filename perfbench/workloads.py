"""Seeded inputs and independent output checks for the three workloads.

Each workload is a ``Workload`` with a list of CLI invocations (config
files plus any matrix or support files, all generated from the seed) and
a ``check`` that compares the data files the CLI wrote against values
computed here with plain numpy: assembled products, LAPACK SVDs and
determinants, never the program's own kernels.  Checks return a list of
problems per invocation; an empty list means the invocation's outputs
hold.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
OMEGA_2D = (math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0)
LN2 = math.log(2.0)
LN3 = math.log(3.0)

#: the SVD oracle assembles unscaled products up to this length
ORACLE_N = 64


@dataclass
class Invocation:
    name: str  # unique in the workload; also the name of its output directory
    subcommand: str
    config: Path
    # a fault of the program that makes this invocation fail on every run;
    # the failure is counted, and the outputs are checked if it ever succeeds
    known_fault: str = ""

    def argv(self, out_dir: Path) -> list[str]:
        return [self.subcommand, "--config", _rel(self.config), "--out", _rel(out_dir)]


@dataclass
class Inputs:
    invocations: list[Invocation]
    # (config path, what set-up builds from it: "family", "distribution" or "")
    configs: list[tuple[Path, str]]
    matrix_files: list[Path] = field(default_factory=list)
    data: dict = field(default_factory=dict)  # generated values the checks need


def _rel(path: Path) -> str:
    # config values collapse runs of whitespace, so keep paths short and relative
    return os.path.relpath(path)


def _write_config(path: Path, lines: list[str]) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _fmt(x: float) -> str:
    return repr(float(x))


# -- CSV reading ----------------------------------------------------------------


def read_csv(text: str) -> list[dict[str, str]]:
    """Rows of a CLI data file as dicts (comment header lines skipped)."""
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    if not lines:
        raise ValueError("no header line")
    cols = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(cols):
            raise ValueError(f"row has {len(cells)} cells, header has {len(cols)}")
        rows.append(dict(zip(cols, cells)))
    return rows


def _table(outputs: dict[str, str], name: str) -> list[dict[str, str]]:
    if name not in outputs:
        raise ValueError(f"missing data file {name}")
    return read_csv(outputs[name])


def _close(got: float, want: float, atol: float = 0.0, rtol: float = 0.0) -> bool:
    return abs(got - want) <= atol + rtol * abs(want)


# -- torus-ladder -----------------------------------------------------------------

SCHRODINGER = [
    "cocycle.kind = schrodinger",
    "cocycle.coupling = 3.0",
    "param.E_min = -3.5",
    "param.E_max = 3.5",
    "param.E_count = 8",
    "numerics.grid = 1024",
    "numerics.n_max = 1024",
]

# A(t)[i, j] = c0 + c1 cos(2 pi t) + s1 sin(2 pi t), t = x1 + x2: strictly
# diagonally dominant at every t, hence invertible on the whole torus
TRIG3_COS = (
    (4.0, 0.5), (0.3, 0.2), (0.1, 0.0),
    (0.2, 0.0), (2.5, 0.4), (0.3, 0.1),
    (0.0, 0.2), (0.1, 0.3), (1.5, 0.3),
)
TRIG3_SIN = (0.0, 0.2, 0.1, 0.1, 0.0, 0.2, 0.3, 0.0, 0.1)
TRIG3 = [
    "cocycle.kind = trig-poly",
    "cocycle.dim = 3",
    "cocycle.trig_degree = 1",
    "cocycle.trig_cos = " + ",".join(_fmt(c) for pair in TRIG3_COS for c in pair),
    "cocycle.trig_sin = " + ",".join(_fmt(s) for s in TRIG3_SIN),
    "shift.nu = 2",
    "shift.omega = sqrt2-sqrt3",
    "numerics.grid = 64",
    "numerics.n_max = 256",
]

HOLDER_KAPPA = 2.0


def holder_config(seed: int) -> list[str]:
    return [
        "cocycle.kind = schrodinger",
        "cocycle.coupling = 3.0",
        "param.E_min = 8.2",
        "param.E_max = 9.2",
        "param.E_count = 2",
        "numerics.grid = 256",
        "numerics.n_max = 256",
        f"numerics.seed = {seed}",
        f"holder.kappa = {_fmt(HOLDER_KAPPA)}",
        "holder.pair_budget = 24",
    ]


def torus_inputs(seed: int, work: Path) -> Inputs:
    sch = _write_config(work / "schrodinger.cfg", SCHRODINGER)
    trig = _write_config(work / "trig3.cfg", TRIG3)
    hol = _write_config(work / "holder.cfg", holder_config(seed))
    return Inputs(
        invocations=[
            Invocation("exponents-schrodinger", "exponents", sch),
            Invocation("exponents-trig3", "exponents", trig),
            Invocation("holder", "holder", hol),
            Invocation("ldt", "ldt", sch),
            Invocation("rates", "rates", sch),
        ],
        configs=[(sch, "family"), (trig, "family"), (hol, "family")],
    )


def torus_grid(nu: int, m: int) -> np.ndarray:
    axis = np.arange(m, dtype=np.float64) / m
    if nu == 1:
        return axis[:, None]
    a, b = np.meshgrid(axis, axis, indexing="ij")
    return np.stack([a.ravel(), b.ravel()], axis=-1)


def schrodinger_factors(t: np.ndarray, E: float, coupling: float = 3.0) -> np.ndarray:
    out = np.zeros((t.size, 2, 2))
    out[:, 0, 0] = 2.0 * coupling * np.cos(2.0 * np.pi * t) - E
    out[:, 0, 1] = -1.0
    out[:, 1, 0] = 1.0
    return out


def trig3_factors(t: np.ndarray) -> np.ndarray:
    c = np.cos(2.0 * np.pi * t)[:, None]
    s = np.sin(2.0 * np.pi * t)[:, None]
    c0 = np.array([p[0] for p in TRIG3_COS])
    c1 = np.array([p[1] for p in TRIG3_COS])
    return (c0 + c1 * c + np.array(TRIG3_SIN) * s).reshape(-1, 3, 3)


def orbit_oracle(factor_at, omega, m: int, scales) -> dict[int, tuple[float, float]]:
    """Grid means of ``(1/n) log sigma_1`` of the assembled, unscaled product
    ``A(x + n omega) ... A(x + omega)`` and of ``(1/n) sum_j log|det A|``."""
    xs = torus_grid(len(omega), m)
    w = np.asarray(omega)
    prod = None
    logdet = np.zeros(xs.shape[0])
    out = {}
    for j in range(1, max(scales) + 1):
        t = np.sum(np.mod(xs + j * w, 1.0), axis=-1)
        f = factor_at(t)
        prod = f if prod is None else f @ prod
        logdet += np.log(np.abs(np.linalg.det(f)))
        if j in scales:
            top = np.linalg.svd(prod, compute_uv=False)[:, 0]
            out[j] = (float(np.mean(np.log(top))) / j, float(np.mean(logdet)) / j)
    return out


def _spectra(rows) -> dict[float, dict[int, dict[int, float]]]:
    spec: dict[float, dict[int, dict[int, float]]] = {}
    for r in rows:
        E, n, j = float(r["E"]), int(r["n"]), int(r["j"])
        spec.setdefault(E, {}).setdefault(n, {})[j] = float(r["lambda"])
    return spec


def _check_ladder(spec, d: int, n_max: int, problems: list[str]):
    scales = [2**k for k in range(n_max.bit_length()) if 2**k <= n_max]
    for E, by_n in spec.items():
        if sorted(by_n) != scales:
            problems.append(f"E={E}: scales {sorted(by_n)} != {scales}")
            continue
        for n in scales:
            lam = [by_n[n].get(j, math.nan) for j in range(1, d + 1)]
            if any(b > a + 1e-9 for a, b in zip(lam, lam[1:])) or any(map(math.isnan, lam)):
                problems.append(f"E={E} n={n}: exponents not ordered {lam}")
        for a, b in zip(scales, scales[1:]):
            if by_n[b][1] > by_n[a][1] + 1e-6:
                problems.append(f"E={E}: lambda_1,{b} exceeds lambda_1,{a} by more than 1e-6")


def _check_oracle(spec, oracle_by_E, problems: list[str], sum_rule: bool):
    for E, oracle in oracle_by_E.items():
        for n, (lam1, detmean) in oracle.items():
            got = spec[E][n]
            if not _close(got[1], lam1, atol=1e-9):
                problems.append(f"E={E} n={n}: lambda_1 {got[1]!r} vs SVD {lam1!r}")
            if sum_rule and not _close(sum(got.values()), detmean, atol=1e-9):
                problems.append(
                    f"E={E} n={n}: sum of exponents {sum(got.values())!r} vs "
                    f"mean log|det| {detmean!r}"
                )


def torus_check(inputs: Inputs, outputs: dict[str, dict[str, str]]) -> dict[str, list[str]]:
    problems: dict[str, list[str]] = {inv.name: [] for inv in inputs.invocations}
    oracle_scales = {2**k for k in range(ORACLE_N.bit_length())}

    def run(name, fn):
        if name not in problems:
            return
        try:
            fn(problems[name], outputs[name])
        except (KeyError, ValueError, IndexError) as exc:
            problems[name].append(f"unreadable output: {exc!r}")

    sch_oracle: dict[float, dict] = {}

    def schrodinger_oracle(E: float):
        if E not in sch_oracle:
            sch_oracle[E] = orbit_oracle(
                lambda t: schrodinger_factors(t, E), (GOLDEN,), 1024, oracle_scales
            )
        return sch_oracle[E]

    def exp_sch(p, out):
        spec = _spectra(_table(out, "exponents.csv"))
        energies = sorted(spec)
        if energies != list(np.linspace(-3.5, 3.5, 8)):
            p.append(f"energies {energies}")
            return
        _check_ladder(spec, 2, 1024, p)
        for E in energies:
            for n, lam in spec[E].items():
                if abs(lam[1] + lam[2]) > 1e-9:
                    p.append(f"E={E} n={n}: lambda_1 + lambda_2 = {lam[1] + lam[2]!r}")
                if lam[1] < LN3 - 1e-6:
                    p.append(f"E={E} n={n}: lambda_1 {lam[1]!r} below Herman's ln 3")
                if abs(lam[1] - spec[-E][n][1]) > 1e-12:
                    p.append(f"E={E} n={n}: lambda(E) != lambda(-E)")
        _check_oracle(spec, {E: schrodinger_oracle(E) for E in energies}, p, sum_rule=False)

    def exp_trig(p, out):
        spec = _spectra(_table(out, "exponents.csv"))
        if sorted(spec) != [0.0]:
            p.append(f"parameters {sorted(spec)}")
            return
        _check_ladder(spec, 3, 256, p)
        oracle = orbit_oracle(trig3_factors, OMEGA_2D, 64, oracle_scales)
        _check_oracle(spec, {0.0: oracle}, p, sum_rule=True)

    def holder(p, out):
        (row,) = _table(out, "holder_summary.csv")
        if not float(row["kappa_min"]) > HOLDER_KAPPA:
            p.append(f"kappa_min {row['kappa_min']} <= kappa {HOLDER_KAPPA}")
        if not float(row["gamma_est"]) > 0.0:
            p.append(f"gamma_est {row['gamma_est']} not positive")
        if int(row["pairs_used"]) < 2 or len(_table(out, "holder_pairs.csv")) != int(row["pairs_used"]):
            p.append("pair rows disagree with pairs_used")

    def ldt(p, out):
        (inv,) = _table(out, "ldt_invariance.csv")
        if inv["ok"] != "true" or float(inv["sup_gap"]) > float(inv["bound"]) + 1e-10:
            p.append(f"almost invariance not ok: {inv}")
        prof = _table(out, "ldt_profile.csv")
        if len(prof) != 7:
            p.append(f"{len(prof)} profile rows, expected 7 (n = 16..1024)")
        for r in prof:
            if not 0.0 <= float(r["measure"]) <= 1.0:
                p.append(f"measure {r['measure']} outside [0, 1]")
        oracle = schrodinger_oracle(-3.5)
        for r in _table(out, "ldt_monotonicity.csv"):
            n = int(r["n"])
            if n in oracle and not _close(float(r["lambda1"]), oracle[n][0], atol=1e-9):
                p.append(f"monotonicity lambda1 at n={n} vs SVD {oracle[n][0]!r}")

    def rates(p, out):
        series = {int(r["n"]): float(r["lambda"]) for r in _table(out, "rates_series.csv")}
        if sorted(series) != [2**k for k in range(2, 11)]:
            p.append(f"series scales {sorted(series)}")
            return
        oracle = schrodinger_oracle(-3.5)
        for n, lam in series.items():
            if n in oracle and not _close(lam, oracle[n][0], atol=1e-9):
                p.append(f"series lambda at n={n} {lam!r} vs SVD {oracle[n][0]!r}")
        for r in _table(out, "rates_r.csv"):
            n = int(r["n"])
            want = 2.0 * n * abs(series[2 * n] - series[n])
            if not _close(float(r["R"]), want, atol=1e-12, rtol=1e-9):
                p.append(f"R({n}) = {r['R']} vs {want!r} from the series")

    run("exponents-schrodinger", exp_sch)
    run("exponents-trig3", exp_trig)
    run("holder", holder)
    run("ldt", ldt)
    run("rates", rates)
    return problems


# -- ap-certify ----------------------------------------------------------------------

N_CERTIFIED_D2 = 60
N_CERTIFIED_D3 = 40
N_CANCELLING = 4
RANK1_THETAS = (math.pi / 4, math.pi / 4)
EPS_SWEEP = tuple(10.0 ** (-k) for k in range(1, 7))
#: the d = 3 sequences come from fixed streams, not from the seed: ``ap-verify``
#: refuses a few certified d = 3 sequences (the Jacobi SVD does not converge on a
#: numerically rank-one running product), and a refusal that came and went with
#: the seed would make the failure count depend on it
D3_STREAM = (0, 2)
#: sequence 203 of this stream is one that ``ap-verify`` refuses, on every run
JACOBI_FAULT_STREAM, JACOBI_FAULT_INDEX = (2, 2), 203
JACOBI_FAULT = "linalg.svd (Jacobi) does not converge on a numerically rank-one 3x3 product"


def _near_identity_rotation(rng: np.random.Generator, d: int, scale: float) -> np.ndarray:
    q, r = np.linalg.qr(np.eye(d) + scale * rng.standard_normal((d, d)))
    return q * np.sign(np.diagonal(r))


def certified_sequence(rng: np.random.Generator, d: int) -> list[np.ndarray]:
    """``n in 4..64`` factors ``L diag(sigma) R``: top singular value
    10^5.5..10^7, the others in [0.5, 2], and ``L``, ``R`` rotations within
    a few hundredths of a radian of the identity, so every AP hypothesis
    holds with room."""
    n = int(rng.integers(4, 65))
    mats = []
    for _ in range(n):
        sigma = np.concatenate([[10.0 ** rng.uniform(5.5, 7.0)], rng.uniform(0.5, 2.0, d - 1)])
        left = _near_identity_rotation(rng, d, 0.03)
        right = _near_identity_rotation(rng, d, 0.03)
        mats.append(left @ np.diag(sigma) @ right)
    return mats


def jacobi_fault_sequence() -> list[np.ndarray]:
    rng = np.random.default_rng(JACOBI_FAULT_STREAM)
    for _ in range(JACOBI_FAULT_INDEX):
        certified_sequence(rng, 3)
    return certified_sequence(rng, 3)


def cancelling_sequence(rng: np.random.Generator, d: int, n: int) -> list[np.ndarray]:
    """Stretches whose axis turns a quarter turn at every step: each pair
    product undoes the stretch, so the no-cancellation hypothesis fails."""
    mats = []
    for j in range(n):
        s = 10.0 ** rng.uniform(2.0, 4.0)
        diag = [s, 1.0 / s] if j % 2 == 0 else [1.0 / s, s]
        mats.append(np.diag(diag + [1.0] * (d - 2)))
    return mats


def write_matrix_file(path: Path, mats: list[np.ndarray]):
    blocks = ["\n".join(" ".join(_fmt(v) for v in row) for row in m) for m in mats]
    path.write_text("\n\n".join(blocks) + "\n", encoding="utf-8")


def ap_inputs(seed: int, work: Path) -> Inputs:
    rng = np.random.default_rng([seed, 1])
    rng3 = np.random.default_rng(D3_STREAM)
    invs, configs, files, seqs = [], [], [], {}
    plan = [("cert", certified_sequence(rng, 2), "") for _ in range(N_CERTIFIED_D2)]
    plan += [("cert", certified_sequence(rng3, 3), "") for _ in range(N_CERTIFIED_D3)]
    plan += [("cert", jacobi_fault_sequence(), JACOBI_FAULT)]
    plan += [
        ("cancel", cancelling_sequence(rng, 2 + i % 2, 4 + 2 * i), "")
        for i in range(N_CANCELLING)
    ]
    for i, (kind, mats, fault) in enumerate(plan):
        name = f"verify-{kind}-{i:03d}"
        mfile = work / f"{name}.txt"
        write_matrix_file(mfile, mats)
        cfg = _write_config(work / f"{name}.cfg", [f"ap.matrix_file = {_rel(mfile)}"])
        invs.append(Invocation(name, "ap-verify", cfg, known_fault=fault))
        configs.append((cfg, ""))
        files.append(mfile)
        seqs[name] = (kind, mats)
    rank2_thetas = tuple(rng.uniform(0.2, 1.3, 3))
    for mode, thetas in (("rank1", RANK1_THETAS), ("rank2", rank2_thetas)):
        cfg = _write_config(work / f"demo-{mode}.cfg", [
            f"ap.mode = {mode}",
            "ap.thetas = " + ",".join(_fmt(t) for t in thetas),
            "ap.eps_sweep = " + ",".join(_fmt(e) for e in EPS_SWEEP),
        ])
        invs.append(Invocation(f"demo-{mode}", "ap-demo-projections", cfg))
        configs.append((cfg, ""))
    return Inputs(invocations=invs, configs=configs, matrix_files=files,
                  data={"sequences": seqs, "rank2_thetas": rank2_thetas})


def norm2(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


def log_norm_of_product(mats) -> float:
    """``log ||A_n ... A_1||`` with renormalisation by the LAPACK 2-norm."""
    prod = np.eye(mats[0].shape[0])
    logs = 0.0
    for m in mats:
        prod = m @ prod
        s = norm2(prod)
        prod /= s
        logs += math.log(s)
    return logs


def ap_discrepancy_oracle(mats) -> float:
    n = len(mats)
    total = log_norm_of_product(mats)
    middle = sum(math.log(norm2(m)) for m in mats[1:-1])
    pairs = sum(math.log(norm2(mats[j + 1] @ mats[j])) for j in range(n - 1))
    return abs(total + middle - pairs)


def _check_verify(kind: str, mats, out, p: list[str]):
    n, d = len(mats), mats[0].shape[0]
    sv = np.array([np.linalg.svd(m, compute_uv=False) for m in mats])
    norms = np.array([norm2(m) for m in mats])
    pair_norms = np.array([norm2(mats[j + 1] @ mats[j]) for j in range(n - 1)])
    factors = _table(out, "ap_verify_factors.csv")
    pairs = _table(out, "ap_verify_pairs.csv")
    (summary,) = _table(out, "ap_verify_summary.csv")
    if len(factors) != n or len(pairs) != n - 1:
        p.append(f"{len(factors)} factor rows and {len(pairs)} pair rows for n={n}")
        return
    if int(summary["n"]) != n or int(summary["dim"]) != d:
        p.append(f"summary n/dim {summary['n']}/{summary['dim']}, want {n}/{d}")
    for j, r in enumerate(factors):
        for col, want in (("norm", norms[j]), ("second_value", sv[j, 1]),
                          ("gap", norms[j] / sv[j, 1])):
            if not _close(float(r[col]), want, rtol=1e-9):
                p.append(f"factor {j + 1}: {col} {r[col]} vs numpy {want!r}")
    for j, r in enumerate(pairs):
        ratio = pair_norms[j] / (norms[j] * norms[j + 1])
        for col, want in (("pair_norm", pair_norms[j]), ("ratio", ratio)):
            if not _close(float(r[col]), want, rtol=1e-9):
                p.append(f"pair {j + 1}: {col} {r[col]} vs numpy {want!r}")
    mu = float(np.min(norms / sv[:, 1]))
    if not _close(float(summary["mu"]), mu, rtol=1e-9):
        p.append(f"mu {summary['mu']} vs numpy {mu!r}")
    disc = ap_discrepancy_oracle(mats)
    if not _close(float(summary["discrepancy"]), disc, atol=1e-9):
        p.append(f"discrepancy {summary['discrepancy']} vs numpy {disc!r}")
    holds = bool(mu >= 16.0 * n * n and np.all(norms[1:] * norms[:-1] < mu**0.25 * pair_norms))
    if holds != (kind == "cert"):
        p.append(f"oracle says hypotheses_hold={holds} for a {kind} sequence")
    if summary["hypotheses_hold"] != ("true" if kind == "cert" else "false"):
        p.append(f"hypotheses_hold = {summary['hypotheses_hold']} for a {kind} sequence")
    if kind == "cert" and not float(summary["discrepancy"]) <= float(summary["bound"]):
        p.append(f"discrepancy {summary['discrepancy']} above bound {summary['bound']}")


def projection_matrices(thetas, eps: float, mode: str) -> list[np.ndarray]:
    out = []
    for phi in np.concatenate([[0.0], np.cumsum(thetas)]):
        u = np.array([math.cos(phi), math.sin(phi), 0.0])
        proj = np.outer(u, u)
        rest = np.eye(3) - proj
        out.append(proj + eps * rest if mode == "rank1" else rest + eps * proj)
    return out


def _check_demo(mode: str, thetas, out, p: list[str]):
    rows = _table(out, "ap_demo_projections.csv")
    if [float(r["eps"]) for r in rows] != list(EPS_SWEEP):
        p.append("eps column differs from the sweep")
        return
    for r in rows:
        mats = projection_matrices(thetas, float(r["eps"]), mode)
        pn = [norm2(mats[j + 1] @ mats[j]) for j in range(len(mats) - 1)]
        for col, want, tol in (
            ("min_pair_norm", min(pn), 1e-12), ("max_pair_norm", max(pn), 1e-12),
            ("max_norm", max(norm2(m) for m in mats), 1e-12),
            ("discrepancy", ap_discrepancy_oracle(mats), 1e-9),
        ):
            if not _close(float(r[col]), want, atol=tol):
                p.append(f"eps={r['eps']}: {col} {r[col]} vs numpy {want!r}")
        if mode == "rank2":
            for col in ("min_pair_norm", "max_pair_norm"):
                if abs(float(r[col]) - 1.0) > 1e-12:
                    p.append(f"eps={r['eps']}: rank2 {col} {r[col]} is not 1")
    if mode == "rank1":
        disc = [float(r["discrepancy"]) for r in rows]
        if not (disc[-1] < disc[-2] < disc[-3] and disc[-1] < 1e-3):
            p.append(f"rank1 discrepancy does not fall as eps -> 0: {disc}")


def ap_check(inputs: Inputs, outputs: dict[str, dict[str, str]]) -> dict[str, list[str]]:
    problems: dict[str, list[str]] = {inv.name: [] for inv in inputs.invocations}
    thetas = {"rank1": RANK1_THETAS, "rank2": inputs.data["rank2_thetas"]}
    for inv in inputs.invocations:
        p = problems[inv.name]
        if inv.known_fault and inv.name not in outputs:
            continue  # failed on every run, as the fault predicts; counted as failed
        try:
            if inv.subcommand == "ap-verify":
                kind, mats = inputs.data["sequences"][inv.name]
                _check_verify(kind, mats, outputs[inv.name], p)
            else:
                mode = inv.name.split("-", 1)[1]
                _check_demo(mode, thetas[mode], outputs[inv.name], p)
        except (KeyError, ValueError, IndexError) as exc:
            p.append(f"unreadable output: {exc!r}")
    return problems


# -- random-streams ------------------------------------------------------------------

SOR_TRIALS = 4000
LD_SCALES = (64, 256)
LD_DELTAS = (0.05, 0.1)


def support_matrices(rng: np.random.Generator) -> list[np.ndarray]:
    """Three well-conditioned 3x3 matrices (condition number below 20)."""
    mats = []
    while len(mats) < 3:
        m = np.eye(3) + 0.5 * rng.standard_normal((3, 3))
        if np.linalg.cond(m) < 20.0:
            mats.append(m)
    return mats


def random_inputs(seed: int, work: Path) -> Inputs:
    rng = np.random.default_rng([seed, 3])
    support = support_matrices(rng)
    probs = (0.5, 0.25, 0.25)
    sfile = work / "support3.txt"
    sfile.write_text("\n\n".join(
        _fmt(pr) + "\n" + "\n".join(" ".join(_fmt(v) for v in row) for row in m)
        for m, pr in zip(support, probs)
    ) + "\n", encoding="utf-8")
    common = [f"numerics.seed = {seed}"]
    cfgs = {
        "stretch-or-rotate": [
            "random.dist = stretch_or_rotate", "random.stretch = 4.0", "random.angle = 1.0",
            f"random.trials = {SOR_TRIALS}", "numerics.n_max = 1024",
            "random.deltas = " + ",".join(_fmt(x) for x in LD_DELTAS),
            "random.ld_scales = " + ",".join(str(n) for n in LD_SCALES),
        ],
        "single": ["random.dist = single", "random.matrix = 2.0,0.0,0.0,0.5",
                   "random.trials = 256", "numerics.n_max = 1024"],
        "two-rotations": ["random.dist = two_rotations", "random.angles = 0.7,1.3",
                          "random.trials = 256", "numerics.n_max = 1024"],
        "file3": ["random.dist = file", f"random.support_file = {_rel(sfile)}",
                  "random.trials = 1000", "numerics.n_max = 512"],
    }
    invs, configs = [], []
    for name, lines in cfgs.items():
        cfg = _write_config(work / f"{name}.cfg", lines + common)
        invs.append(Invocation(name, "random", cfg))
        configs.append((cfg, "distribution"))
    return Inputs(invocations=invs, configs=configs)


def stream_lognorms(seqs: np.ndarray, scales) -> dict[int, np.ndarray]:
    """``log ||Y_n ... Y_1||`` per trial at each scale, from a ``(T, n, d, d)``
    stack: Frobenius renormalisation, LAPACK 2-norm at the scales."""
    t, n_max = seqs.shape[:2]
    prod = np.broadcast_to(np.eye(seqs.shape[-1]), (t,) + seqs.shape[2:]).copy()
    logs = np.zeros(t)
    out = {}
    for j in range(1, n_max + 1):
        prod = seqs[:, j - 1] @ prod
        fro = np.sqrt(np.sum(prod * prod, axis=(1, 2)))
        prod /= fro[:, None, None]
        logs += np.log(fro)
        if j in scales:
            out[j] = logs + np.log(np.linalg.svd(prod, compute_uv=False)[:, 0])
    return out


def _check_random(name: str, config: Path, out, p: list[str]):
    from cocyclelab.config import parse_config_file

    cfg = parse_config_file(str(config))
    dist = cfg.distribution()
    trials, n_max = int(cfg["random.trials"]), int(cfg["numerics.n_max"])
    rows = _table(out, "random_rates.csv")
    scales = [int(r["n"]) for r in rows]
    if scales != [2**k for k in range(3, n_max.bit_length()) if 2**k <= n_max]:
        p.append(f"scales {scales}")
        return
    seqs = np.stack([dist.sample_sequence(t, n_max) for t in range(trials)])
    logs = stream_lognorms(seqs, set(scales) | set(LD_SCALES if cfg["random.deltas"] else ()))
    for r in rows:
        n = int(r["n"])
        per_trial = logs[n] / n
        est, se = float(np.mean(per_trial)), float(np.std(per_trial, ddof=1) / math.sqrt(trials))
        if int(r["trials"]) != trials:
            p.append(f"n={n}: trials {r['trials']}")
        if not _close(float(r["estimate"]), est, atol=1e-9):
            p.append(f"n={n}: estimate {r['estimate']} vs recomputed {est!r}")
        if not _close(float(r["stderr"]), se, atol=1e-9):
            p.append(f"n={n}: stderr {r['stderr']} vs recomputed {se!r}")
        if name == "single" and (abs(float(r["estimate"]) - LN2) > 1e-12
                                 or float(r["stderr"]) > 1e-12):
            p.append(f"n={n}: single diag(2, 1/2) gives {r['estimate']}, not ln 2")
        # the 2x2 closed-form norm carries a sqrt(eps)-sized bias on isometries
        # that dies out as 1/n: 1e-10 holds from n = 64 on, 1e-9 everywhere
        if name == "two-rotations" and abs(float(r["estimate"])) > (1e-10 if n >= 64 else 1e-9):
            p.append(f"n={n}: isometries give {r['estimate']}, not 0")
    if cfg["random.deltas"]:
        ld = _table(out, "random_ld.csv")
        want = [(n, dl) for n in sorted(LD_SCALES) for dl in LD_DELTAS]
        if [(int(r["n"]), float(r["delta"])) for r in ld] != want:
            p.append("LD rows differ from ld_scales x deltas")
            return
        n_ref = max(LD_SCALES)
        lam_ref = float(np.mean(logs[n_ref] / n_ref))
        for r in ld:
            n, delta = int(r["n"]), float(r["delta"])
            prob = np.count_nonzero(np.abs(logs[n] - n * lam_ref) > n * delta) / trials
            if abs(float(r["probability"]) - prob) > 1.0 / trials + 1e-15:
                p.append(f"n={n} delta={delta}: probability {r['probability']} vs {prob!r}")


def random_check(inputs: Inputs, outputs: dict[str, dict[str, str]]) -> dict[str, list[str]]:
    problems: dict[str, list[str]] = {inv.name: [] for inv in inputs.invocations}
    for inv in inputs.invocations:
        try:
            _check_random(inv.name, inv.config, outputs[inv.name], problems[inv.name])
        except (KeyError, ValueError, IndexError) as exc:
            problems[inv.name].append(f"unreadable output: {exc!r}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int, Path], Inputs]
    check: Callable[[Inputs, dict[str, dict[str, str]]], dict[str, list[str]]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("torus-ladder", torus_inputs, torus_check),
        Workload("ap-certify", ap_inputs, ap_check),
        Workload("random-streams", random_inputs, random_check),
    )
}
