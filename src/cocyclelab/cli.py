"""One executable, one subcommand per experiment.

A subcommand is a function ``body(cfg, run)`` registered by
:func:`_subcommand`, which gives it ``--config``, ``--out`` and
``--seed`` and owns everything around it: loading the config, the seed
override, the run's data files and manifest, and the exit status.  The
body computes and calls ``run.emit`` once per table.

Data files (CSV or JSON) go into ``--out`` with a run manifest.  They are
deterministic for a fixed (config, seed): output begins with the config
hash and the fully resolved config as comment lines, numbers carry 17
significant digits, and nothing time-dependent goes into them (wall
times live in the manifest only).  Diagnostics go to stderr; exit status
is 0 on success, 1 on validation failure, 2 on a numerical refusal.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import __version__, avalanche, ldt, random_products, rates
from .cocycle import QUADRATURE_TOL, check_ladder
from .config import ExperimentConfig, parse_config_file, read_matrix_blocks
from .diophantine import diophantine_minima
from .errors import ConfigError, NumericalRefusal, ValidationError
from .util import dyadic_ladder, format_float


class _Run:
    """Collects data files and stage timings for one invocation.  The config
    is final (seeded) when it starts, so its canonical text and hash are
    formatted once, for every file's header and for the manifest."""

    def __init__(self, cfg: ExperimentConfig, out_dir: str, subcommand: str):
        self.cfg = cfg
        self.config_hash = cfg.config_hash()
        self.header = [f"# config_hash = {self.config_hash}"]
        self.header += [f"# {l}" for l in cfg.canonical_text().splitlines()]
        self.out = Path(out_dir)
        self.subcommand = subcommand
        self.base = str(cfg["output.path"]) or subcommand.replace("-", "_")
        self.fmt = str(cfg["output.format"])
        self.row_counts: dict[str, int] = {}
        self.stages: dict[str, float] = {}
        self._t0 = time.monotonic()
        self.out.mkdir(parents=True, exist_ok=True)

    def stage(self, name: str):
        now = time.monotonic()
        self.stages[name] = round(now - self._t0, 6)
        self._t0 = now

    def _fmt_cell(self, v) -> str:
        if v is None:  # a value that does not apply
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, (float, np.floating)):
            return format_float(float(v))
        return str(v)

    def emit(self, section: str, columns: list[str], rows: list[tuple]):
        """Write one table as ``<base>_<section>.csv`` or ``.json``."""
        name = f"{self.base}_{section}" if section else self.base
        if self.fmt == "csv":
            path = self.out / f"{name}.csv"
            lines = self.header + [",".join(columns)]
            for row in rows:
                lines.append(",".join(self._fmt_cell(v) for v in row))
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        else:
            path = self.out / f"{name}.json"
            doc = {
                "config_hash": self.config_hash,
                "config": {k: self.cfg.values[k] for k in sorted(self.cfg.values)},
                "columns": columns,
                "rows": [[_jsonable(v) for v in row] for row in rows],
            }
            path.write_text(
                json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8"
            )
        self.row_counts[path.name] = len(rows)

    def finish(self):
        self.stage("write")
        manifest = {
            "tool_version": __version__,
            "subcommand": self.subcommand,
            "config_hash": self.config_hash,
            "stages_seconds": self.stages,
            "row_counts": self.row_counts,
        }
        (self.out / "manifest.json").write_text(
            json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )


def _jsonable(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, (np.bool_,)):
        return bool(v)
    return v


@click.group()
@click.version_option(version=__version__)
def main():
    """Numerical laboratory for Lyapunov exponents of linear cocycles."""


def _subcommand(name: str):
    """Register ``body(cfg, run)`` as the subcommand ``name``.

    The command takes ``--config``, ``--out`` and ``--seed``; it loads the
    config, applies the seed override, hands ``body`` the config and a
    fresh :class:`_Run`, writes the manifest, and exits 0, 1 on bad input
    or 2 on a numerical refusal.
    """

    def register(body):
        @main.command(name=name, help=body.__doc__)
        @click.option("--seed", default=None, type=int, help="override numerics.seed")
        @click.option("--out", "out_dir", default="./out", show_default=True,
                      help="output directory")
        @click.option("--config", "config_path", required=True, type=click.Path(),
                      help="experiment config file")
        def command(config_path, out_dir, seed):
            try:
                cfg = parse_config_file(config_path)
                if seed is not None:
                    if not 0 <= seed < 2**64:
                        raise ConfigError("--seed must fit in 64 bits")
                    cfg.values["numerics.seed"] = int(seed)
                run = _Run(cfg, out_dir, name)
                run.stage("load")
                body(cfg, run)
                run.finish()
            except (ConfigError, ValidationError) as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(1)
            except NumericalRefusal as exc:
                click.echo(f"refused: {exc}", err=True)
                sys.exit(2)
            sys.exit(0)

        return command

    return register


def _rate_series(cfg: ExperimentConfig) -> rates.RateSeries:
    """The ``rates.j`` series at the first grid energy (rates, dichotomy)."""
    return rates.rate_series(
        cfg.family(), float(cfg.param_grid()[0]), int(cfg["rates.j"]),
        int(cfg["numerics.n_max"]), int(cfg["numerics.grid"]),
        n_min=int(cfg["rates.n_min"]),
    )


def _emit_verdict(run: _Run, v: rates.DichotomyVerdict):
    """The one-row verdict table of ``dichotomy`` and ``random``."""
    run.emit(
        "verdict",
        ["classification", "c1", "c1_est", "trigger_scale", "noise_floor"],
        [(v.classification, v.c1, v.c1_est, v.trigger_scale, v.noise_floor)],
    )


@_subcommand("exponents")
def exponents(cfg: ExperimentConfig, run: _Run):
    """Finite-scale exponent table over the parameter grid."""
    fam = cfg.family()
    scales = dyadic_ladder(1, int(cfg["numerics.n_max"]))
    grid = cfg.param_grid()
    ladder = fam.exponent_ladder(grid, scales, int(cfg["numerics.grid"]))
    run.stage("compute")
    check_ladder(ladder, grid, QUADRATURE_TOL)
    run.emit("", ["E", "n", "j", "lambda"],
             [(E, n, j, v) for k, E in enumerate(grid) for n in scales
              for j, v in enumerate(ladder[n][k], start=1)])


@_subcommand("ap-verify")
def ap_verify(cfg: ExperimentConfig, run: _Run):
    """Avalanche-principle report for matrices read from ap.matrix_file."""
    path = str(cfg["ap.matrix_file"])
    if not path:
        raise ConfigError("ap.matrix_file is required for ap-verify")
    mats = read_matrix_blocks(path)
    report = avalanche.verify(mats, mu=float(cfg["ap.mu"]) or None)
    bracket = avalanche.overlap_bracket(report)
    run.stage("compute")
    run.emit(
        "factors",
        ["j", "norm", "second_value", "gap"],
        [(j + 1, report.norms[j], report.second_values[j], report.gaps[j])
         for j in range(report.n)],
    )
    run.emit(
        "pairs",
        ["j", "pair_norm", "ratio", "overlap", "bracket_ok"],
        [(j + 1, report.pair_norms[j], report.pair_ratios[j],
          bracket.overlaps[j], bool(~bracket.violations[j]))
         for j in range(report.n - 1)],
    )
    run.emit(
        "summary",
        ["n", "dim", "mu", "hypotheses_hold", "discrepancy", "bound"],
        [(report.n, report.dim, report.mu, report.hypotheses_hold,
          report.discrepancy, report.bound)],
    )


@_subcommand("ap-demo-projections")
def ap_demo_projections(cfg: ExperimentConfig, run: _Run):
    """Projection-family sweep: discrepancy versus epsilon."""
    rows = []
    for eps in cfg["ap.eps_sweep"]:
        report = avalanche.verify(avalanche.projection_matrices(
            cfg["ap.thetas"], eps, str(cfg["ap.mode"])))
        rows.append((float(eps), float(np.min(report.pair_norms)),
                     float(np.max(report.pair_norms)), float(np.max(report.norms)),
                     report.discrepancy))
    run.stage("compute")
    run.emit(
        "", ["eps", "min_pair_norm", "max_pair_norm", "max_norm", "discrepancy"], rows
    )


@_subcommand("ldt")
def ldt_cmd(cfg: ExperimentConfig, run: _Run):
    """Deviation-set measures, decay fit, almost invariance, monotonicity."""
    fam = cfg.family()
    e0 = float(cfg.param_grid()[0])
    m = int(cfg["numerics.grid"])
    ladder = cfg.dyadic_scales(16)
    prof, inv, mono = ldt.reports(
        fam, e0, cfg["ldt.scales"] or ladder, cfg["ldt.deltas"], m,
        p=int(cfg["ldt.p"]), k=int(cfg["ldt.k"]), ladder=ladder)
    model = str(cfg["ldt.model"])
    if model == "auto":
        model = "exp_poly" if fam.base.nu == 1 else "stretched"
    fits = [(delta, ldt.fit_decay(prof, delta, model)) for delta in cfg["ldt.deltas"]]
    run.stage("compute")
    run.emit("profile", ["n", "delta", "measure", "grid"],
             [(n, d, meas, m) for (n, d, meas) in prof])
    run.emit(
        "fit",
        ["delta", "model", "degenerate", "c", "C", "b", "tau", "residual"],
        [(d, f.model, f.degenerate, f.c, f.C, f.b, f.tau, f.residual)
         for d, f in fits],
    )
    run.emit(
        "invariance",
        ["n", "k", "sup_gap", "bound", "ok"],
        [(inv.n, inv.k, inv.sup_gap, inv.bound, inv.ok)],
    )
    run.emit(
        "monotonicity",
        ["n", "lambda1", "violation_excess"],
        [(n, v, next((e for s, e in mono.violations if s == n), 0.0))
         for n, v in zip(mono.scales, mono.values)],
    )


@_subcommand("rates")
def rates_cmd(cfg: ExperimentConfig, run: _Run):
    """Dyadic rate series, Richardson proxy, C/n table, R(n) sequence."""
    series = _rate_series(cfg)
    c_est, table = rates.check_c_over_n(series)
    rseq = rates.r_sequence(series)
    run.stage("compute")
    run.emit("series", ["n", "lambda", "n_weighted_deviation"],
             [(n, v, w) for (n, v), (_, w) in
              zip(zip(series.scales, series.values), table)])
    run.emit("r", ["n", "R"], list(rseq.rows))
    run.emit(
        "summary",
        ["j", "proxy_limit", "proxy_scale", "C_est", "r_tail_max",
         "r_median", "r_bounded"],
        [(series.j, series.proxy_limit, series.proxy_scale, c_est,
          rseq.tail_max, rseq.median, rseq.bounded)],
    )


@_subcommand("dichotomy")
def dichotomy_cmd(cfg: ExperimentConfig, run: _Run):
    """Exponential-versus-1/n classification of the rate series."""
    verdict = rates.dichotomy(
        _rate_series(cfg), c1=float(cfg["dichotomy.c1"]), l0=int(cfg["dichotomy.l0"])
    )
    run.stage("compute")
    _emit_verdict(run, verdict)
    run.emit("evidence", ["l", "second_difference", "threshold"],
             list(verdict.evidence))


@_subcommand("holder")
def holder_cmd(cfg: ExperimentConfig, run: _Run):
    """Hölder-exponent regression over the parameter window."""
    fam = cfg.family()
    grid = cfg.param_grid()
    window = (float(grid[0]), float(grid[-1]))
    est = rates.holder_estimate(
        fam,
        int(cfg["holder.j"]),
        window,
        n=int(cfg["numerics.n_max"]),
        m=int(cfg["numerics.grid"]),
        pair_budget=int(cfg["holder.pair_budget"]),
        kappa=float(cfg["holder.kappa"]),
        seed=int(cfg["numerics.seed"]),
        decades=int(cfg["holder.decades"]),
    )
    run.stage("compute")
    run.emit(
        "summary",
        ["j", "E_lo", "E_hi", "n", "gamma_est", "residual", "kappa_min",
         "pairs_used", "pairs_excluded", "zero_variation", "stretched_sigma"],
        [(est.j, est.window[0], est.window[1], est.n, est.gamma_est,
          est.residual, est.kappa_min, est.pairs_used, est.pairs_excluded,
          est.zero_variation, est.stretched_sigma)],
    )
    run.emit("pairs", ["distance", "dlambda"], list(est.pair_rows))


@_subcommand("random")
def random_cmd(cfg: ExperimentConfig, run: _Run):
    """Random matrix products: exponent ladder, LD rows, verdict."""
    dist = cfg.distribution()
    scales = cfg["random.scales"] or cfg.dyadic_scales(8)
    report = random_products.rate_report(
        dist,
        scales,
        int(cfg["random.trials"]),
        deltas=cfg["random.deltas"],
        ld_scales=cfg["random.ld_scales"] if cfg["random.deltas"] else (),
        c1=float(cfg["random.c1"]),
    )
    run.stage("compute")
    run.emit("rates", ["n", "estimate", "stderr", "trials"], list(report.rows))
    if report.ld_rows:
        run.emit("ld", ["n", "delta", "probability"], list(report.ld_rows))
    _emit_verdict(run, report.verdict)


@_subcommand("dioph")
def dioph_cmd(cfg: ExperimentConfig, run: _Run):
    """Diophantine-quality scan of the shift frequency."""
    base = cfg.shift_base()
    if base.nu != 1:
        raise ConfigError("dioph requires shift.nu = 1")
    n_max = int(cfg["numerics.n_max"])
    records = diophantine_minima(base.omega[0], base.dio_exponent, n_max)
    worst, c_est = records[-1]
    run.stage("compute")
    run.emit("", ["omega", "dio_exponent", "n_max", "c_est", "worst_n"],
             [(base.omega[0], base.dio_exponent, n_max, c_est, worst)])
    run.emit("records", ["n", "value"], records)


if __name__ == "__main__":
    main()
