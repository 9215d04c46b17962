"""One executable, one subcommand per experiment.

Every subcommand takes ``--config`` and writes data files (CSV or JSON)
plus a run manifest into ``--out``.  Data files are deterministic for a
fixed (config, seed): output begins with the config hash and the fully
resolved config as comment lines, numbers carry 17 significant digits,
and nothing time-dependent goes into them (wall times live in the
manifest only).  Diagnostics go to stderr; exit status is 0 on success,
1 on validation failure, 2 on a numerical refusal.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import __version__, avalanche, ldt, random_products, rates
from .cocycle import check_ladder
from .config import ExperimentConfig, parse_config_file, read_matrix_blocks
from .diophantine import diophantine_minima
from .errors import ConfigError, NumericalRefusal, ValidationError
from .util import dyadic_ladder, format_float


class _Run:
    """Collects data files and stage timings for one invocation."""

    def __init__(self, cfg: ExperimentConfig, out_dir: str, subcommand: str):
        self.cfg = cfg
        self.out = Path(out_dir)
        self.subcommand = subcommand
        self.base = str(cfg["output.path"]) or subcommand.replace("-", "_")
        self.precision = int(cfg["output.precision"])
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
            return format_float(float(v), self.precision)
        return str(v)

    def emit(self, section: str, columns: list[str], rows: list[tuple]):
        """Write one table as ``<base>_<section>.csv`` or ``.json``."""
        name = f"{self.base}_{section}" if section else self.base
        if self.fmt == "csv":
            path = self.out / f"{name}.csv"
            lines = [f"# config_hash = {self.cfg.config_hash()}"]
            lines += [f"# {l}" for l in self.cfg.canonical_text().splitlines()]
            lines.append(",".join(columns))
            for row in rows:
                lines.append(",".join(self._fmt_cell(v) for v in row))
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        else:
            path = self.out / f"{name}.json"
            doc = {
                "config_hash": self.cfg.config_hash(),
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
            "config_hash": self.cfg.config_hash(),
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


def _common_options(fn):
    fn = click.option("--config", "config_path", required=True,
                      type=click.Path(), help="experiment config file")(fn)
    fn = click.option("--out", "out_dir", default="./out", show_default=True,
                      help="output directory")(fn)
    fn = click.option("--seed", default=None, type=int,
                      help="override numerics.seed")(fn)
    return fn


def _dispatch(subcommand: str, config_path, out_dir, seed, body):
    try:
        cfg = parse_config_file(config_path)
        if seed is not None:
            if not 0 <= seed < 2**64:
                raise ConfigError("--seed must fit in 64 bits")
            cfg.values["numerics.seed"] = int(seed)
        run = _Run(cfg, out_dir, subcommand)
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


@click.group()
@click.version_option(version=__version__)
def main():
    """Numerical laboratory for Lyapunov exponents of linear cocycles."""


@main.command()
@_common_options
def exponents(config_path, out_dir, seed):
    """Finite-scale exponent table over the parameter grid."""

    def body(cfg: ExperimentConfig, run: _Run):
        fam = cfg.family()
        scales = dyadic_ladder(1, int(cfg["numerics.n_max"]))
        grid = cfg.param_grid()
        ladder = fam.exponent_ladder(grid, scales, cfg.grid_size())
        run.stage("compute")
        check_ladder(ladder, grid, fam.unit_determinant,
                     max(1e-9, float(cfg["numerics.tol_quad"])))
        run.emit("", ["E", "n", "j", "lambda"],
                 [(E, n, j, v) for k, E in enumerate(grid) for n in scales
                  for j, v in enumerate(ladder[n][k], start=1)])

    _dispatch("exponents", config_path, out_dir, seed, body)


@main.command(name="ap-verify")
@_common_options
def ap_verify(config_path, out_dir, seed):
    """Avalanche-principle report for matrices read from ap.matrix_file."""

    def body(cfg: ExperimentConfig, run: _Run):
        path = str(cfg["ap.matrix_file"])
        if not path:
            raise ConfigError("ap.matrix_file is required for ap-verify")
        mats = read_matrix_blocks(path)
        report = avalanche.verify(mats, mu=float(cfg["ap.mu"]) or None)
        bracket = avalanche.overlap_bracket(mats, report)
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

    _dispatch("ap-verify", config_path, out_dir, seed, body)


@main.command(name="ap-demo-projections")
@_common_options
def ap_demo_projections(config_path, out_dir, seed):
    """Projection-family sweep: discrepancy versus epsilon."""

    def body(cfg: ExperimentConfig, run: _Run):
        sweep = avalanche.projection_sweep(
            cfg["ap.thetas"], cfg["ap.eps_sweep"], str(cfg["ap.mode"])
        )
        run.stage("compute")
        rows = [
            (demo.eps, float(np.min(demo.pair_norms)), float(np.max(demo.pair_norms)),
             float(np.max(demo.norms)), demo.discrepancy)
            for demo in sweep
        ]
        run.emit(
            "", ["eps", "min_pair_norm", "max_pair_norm", "max_norm", "discrepancy"],
            rows,
        )

    _dispatch("ap-demo-projections", config_path, out_dir, seed, body)


@main.command(name="ldt")
@_common_options
def ldt_cmd(config_path, out_dir, seed):
    """Deviation-set measures, decay fit, almost invariance, monotonicity."""

    def body(cfg: ExperimentConfig, run: _Run):
        fam = cfg.family()
        e0 = float(cfg.param_grid()[0])
        m = cfg.grid_size()
        scales = cfg["ldt.scales"] or cfg.dyadic_scales(16)
        prof = ldt.deviation_profile(
            fam, e0, int(cfg["ldt.p"]), scales, cfg["ldt.deltas"], m
        )
        model = str(cfg["ldt.model"])
        if model == "auto":
            model = "exp_poly" if fam.base.nu == 1 else "stretched"
        fits = [(delta, ldt.fit_decay(prof, delta, model)) for delta in cfg["ldt.deltas"]]
        inv = ldt.almost_invariance(fam, e0, max(scales), int(cfg["ldt.k"]), m)
        mono = ldt.monotonicity_audit(
            fam, e0, cfg.dyadic_scales(16), m, tol=float(cfg["numerics.tol_quad"])
        )
        run.stage("compute")
        run.emit("profile", ["n", "delta", "measure", "grid"],
                 [(n, d, meas, m) for (n, d, meas) in prof.rows])
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

    _dispatch("ldt", config_path, out_dir, seed, body)


@main.command(name="rates")
@_common_options
def rates_cmd(config_path, out_dir, seed):
    """Dyadic rate series, Richardson proxy, C/n table, R(n) sequence."""

    def body(cfg: ExperimentConfig, run: _Run):
        fam = cfg.family()
        e0 = float(cfg.param_grid()[0])
        series = rates.rate_series(
            fam, e0, int(cfg["rates.j"]), int(cfg["numerics.n_max"]),
            cfg.grid_size(), n_min=int(cfg["rates.n_min"]),
        )
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

    _dispatch("rates", config_path, out_dir, seed, body)


@main.command(name="dichotomy")
@_common_options
def dichotomy_cmd(config_path, out_dir, seed):
    """Exponential-versus-1/n classification of the rate series."""

    def body(cfg: ExperimentConfig, run: _Run):
        fam = cfg.family()
        e0 = float(cfg.param_grid()[0])
        series = rates.rate_series(
            fam, e0, int(cfg["rates.j"]), int(cfg["numerics.n_max"]),
            cfg.grid_size(), n_min=int(cfg["rates.n_min"]),
        )
        verdict = rates.dichotomy(
            series, c1=float(cfg["dichotomy.c1"]), l0=int(cfg["dichotomy.l0"])
        )
        run.stage("compute")
        run.emit(
            "verdict",
            ["classification", "c1", "c1_est", "trigger_scale", "noise_floor"],
            [(verdict.classification, verdict.c1, verdict.c1_est,
              verdict.trigger_scale, verdict.noise_floor)],
        )
        run.emit("evidence", ["l", "second_difference", "threshold"],
                 list(verdict.evidence))

    _dispatch("dichotomy", config_path, out_dir, seed, body)


@main.command(name="holder")
@_common_options
def holder_cmd(config_path, out_dir, seed):
    """Hölder-exponent regression over the parameter window."""

    def body(cfg: ExperimentConfig, run: _Run):
        fam = cfg.family()
        grid = cfg.param_grid()
        window = (float(grid[0]), float(grid[-1]))
        est = rates.holder_estimate(
            fam,
            int(cfg["holder.j"]),
            window,
            n=int(cfg["numerics.n_max"]),
            m=cfg.grid_size(),
            pair_budget=int(cfg["holder.pair_budget"]),
            kappa=float(cfg["holder.kappa"]),
            seed=int(cfg["numerics.seed"]),
            decades=int(cfg["holder.decades"]),
        )
        run.stage("compute")
        run.emit(
            "summary",
            ["j", "E_lo", "E_hi", "n", "gamma_est", "residual", "kappa_min",
             "pairs_used", "pairs_excluded", "zero_variation",
             "beta0_check_pass", "stretched_sigma"],
            [(est.j, est.window[0], est.window[1], est.n, est.gamma_est,
              est.residual, est.kappa_min, est.pairs_used, est.pairs_excluded,
              est.zero_variation,
              None if est.beta0_check is None else est.beta0_check.passes,
              est.stretched_sigma)],
        )
        run.emit("pairs", ["distance", "dlambda"], list(est.pair_rows))

    _dispatch("holder", config_path, out_dir, seed, body)


@main.command(name="random")
@_common_options
def random_cmd(config_path, out_dir, seed):
    """Random matrix products: exponent ladder, LD rows, verdict."""

    def body(cfg: ExperimentConfig, run: _Run):
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
        v = report.verdict
        run.emit(
            "verdict",
            ["classification", "c1", "c1_est", "trigger_scale", "noise_floor"],
            [(v.classification, v.c1, v.c1_est,
              v.trigger_scale, v.noise_floor)],
        )

    _dispatch("random", config_path, out_dir, seed, body)


@main.command(name="dioph")
@_common_options
def dioph_cmd(config_path, out_dir, seed):
    """Diophantine-quality scan of the shift frequency."""

    def body(cfg: ExperimentConfig, run: _Run):
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

    _dispatch("dioph", config_path, out_dir, seed, body)


if __name__ == "__main__":
    main()
