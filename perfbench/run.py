"""Benchmark of the ``cocyclelab`` CLI: one workload per process.

    python3 perfbench/run.py --workload torus-ladder --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  The run generates the workload's inputs from the
seed, then runs whole rounds until ``--seconds`` have passed.  A round
measures set-up ten times (a fresh import that compiles the package from
source, config parsing, family and distribution construction, matrix-file
reading) and then runs every CLI invocation of the workload once,
in-process.  Data files of the first round are checked against
independent numpy computations (``workloads.py``); later rounds must
reproduce them byte for byte.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds with rounds traced by ``tracer.py`` and reports the
per-layer metrics, per traced round, plus the tracing overhead.  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS_PER_ROUND = 10


def setup_once(inputs, pycache: Path) -> float:
    """Import the CLI afresh, parse every config, build every family or
    distribution and read every AP matrix file; returns seconds.

    Bytecode is looked up only under ``pycache``, which stays empty, so
    every set-up compiles the package from source and a ``__pycache__``
    left in ``src/`` is never read."""
    for name in [n for n in sys.modules if n == "cocyclelab" or n.startswith("cocyclelab.")]:
        del sys.modules[name]
    gc.collect()  # free the previous import now, so memory does not grow with the rounds
    sys.pycache_prefix = str(pycache)
    try:
        t0 = time.perf_counter()
        importlib.import_module("cocyclelab.cli")
    finally:
        sys.pycache_prefix = None
    config = sys.modules["cocyclelab.config"]
    for path, build in inputs.configs:
        cfg = config.parse_config_file(str(path))
        if build == "family":
            cfg.family()
        elif build == "distribution":
            cfg.distribution()
    for path in inputs.matrix_files:
        config.read_matrix_blocks(str(path))
    return time.perf_counter() - t0


def invoke(main, argv: list[str]) -> int:
    """One in-process CLI invocation; returns its exit code."""
    try:
        main.main(args=argv, prog_name="cocyclelab", standalone_mode=False)
    except SystemExit as exc:
        return 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed invocation, not a crashed run
        traceback.print_exc()
        return 1
    return 0


def read_outputs(out_dir: Path) -> dict[str, str]:
    if not out_dir.is_dir():
        return {}
    return {
        f.name: f.read_text(encoding="utf-8")
        for f in sorted(out_dir.iterdir())
        if f.name != "manifest.json"
    }


def run_rounds(inputs, work: Path, seconds: float, tracer=None):
    """Whole rounds until ``seconds`` have passed.  Each round starts with
    ``SETUPS_PER_ROUND`` set-ups and runs on the package they imported, so
    set-up is sampled over the whole run.  With a tracer, rounds alternate
    untraced / traced and there are at least two.

    Returns ``(setups, rounds, first)``: set-up seconds; per round
    ``(traced, seconds per invocation, ok per invocation)``; and each
    invocation's data files from its first successful run.  An attempt is
    not ok if it exits non-zero or its data files differ from that first run.
    """
    first: dict[str, dict[str, str]] = {}
    setups, rounds = [], []
    pycache = work / "pycache"
    t_start = time.perf_counter()
    while True:
        setups += [setup_once(inputs, pycache) for _ in range(SETUPS_PER_ROUND)]
        main = sys.modules["cocyclelab.cli"].main
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        times, oks = [], []
        for inv in inputs.invocations:
            out_dir = work / "out" / inv.name
            t0 = time.perf_counter()
            code = invoke(main, inv.argv(out_dir))
            times.append(time.perf_counter() - t0)
            ok = code == 0
            if ok:
                outputs = read_outputs(out_dir)
                first.setdefault(inv.name, outputs)
                ok = outputs == first[inv.name]
            if not ok:
                print(f"{inv.name}: exit code {code} or data files changed"
                      + (f" (known fault: {inv.known_fault})" if inv.known_fault else ""),
                      file=sys.stderr)
            oks.append(ok)
        if traced:
            tracer.uninstall()
        rounds.append((traced, times, oks))
        enough = len(rounds) >= (2 if tracer is not None else 1)
        if enough and time.perf_counter() - t_start >= seconds:
            return setups, rounds, first


def end_to_end(setups, rounds, peak_rss_mib) -> dict:
    walls = [sum(times) for _, times, _ in rounds]
    # each invocation's typical time first, so the run's median is not an
    # order statistic at the edge of one invocation's samples
    per_invocation = [statistics.median(ts) for ts in zip(*(times for _, times, _ in rounds))]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "cli_p50_s": {"value": statistics.median(per_invocation), "unit": "s"},
        "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
    }


TIMED_SPANS = (
    "cocycle.evaluate_batch", "cocycle.orbit_points", "linalg.spectral_norm_batch",
    "linalg.compound_batch", "linalg.svd", "avalanche.check_hypotheses",
    "avalanche.ap_discrepancy", "avalanche.overlap_bracket",
    "random_products.sample_sequence", "rates.holder_estimate", "rates.gap_monitor",
    "rates.crude_continuity_check", "ldt.deviation_profile", "ldt.almost_invariance",
    "ldt.monotonicity_audit", "util.pairwise_mean",
)


def per_layer(tracer, rounds) -> dict:
    traced = [sum(t) for tr, t, _ in rounds if tr]
    plain = [sum(t) for tr, t, _ in rounds if not tr]
    k = len(traced)
    total, self_time, calls, counts = tracer.total, tracer.self_time, tracer.calls, tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "cocycle.point_steps": (counts["cocycle.point_steps"] / k, "count"),
        "cocycle.ns_per_point_step": (
            1e9 * ratio(total["cocycle.orbit_lognorms"], counts["cocycle.point_steps"]), "ns"),
        "cocycle.orbit_lognorms.self_s": (self_time["cocycle.orbit_lognorms"] / k, "s"),
        "cocycle.evaluate_batch.points": (counts["cocycle.evaluate_batch.points"] / k, "count"),
        "linalg.svd.calls": (calls["linalg.svd"] / k, "count"),
        "linalg.svd_per_factor": (
            ratio(calls["linalg.svd"], counts["avalanche.factors"]), "calls/factor"),
        "avalanche.factors": (counts["avalanche.factors"] / k, "count"),
        "random_products.sample_sequence.calls": (
            calls["random_products.sample_sequence"] / k, "count"),
        "random_products.trial_steps": (counts["random_products.trial_steps"] / k, "count"),
        "random_products.product_self_s": (
            self_time["random_products.batched_lognorms"] / k, "s"),
        "random_products.ns_per_trial_step": (
            1e9 * ratio(total["random_products.batched_lognorms"],
                        counts["random_products.trial_steps"]), "ns"),
        "config.parse_s": (total["config.parse_config_file"] / k, "s"),
        "config.build_s": ((total["config.family"] + total["config.distribution"]) / k, "s"),
        "cli.write_s": ((total["cli.emit"] + total["cli.finish"]) / k, "s"),
        "cli.bytes_written": (counts["cli.bytes_written"] / k, "bytes"),
    }
    for span in TIMED_SPANS:
        m[f"{span}.s"] = (total[span] / k, "s")
    m["trace.traced_wall_s"] = (statistics.median(traced), "s")
    m["trace.untraced_wall_s"] = (statistics.median(plain), "s")
    m["trace.overhead_s"] = (m["trace.traced_wall_s"][0] - m["trace.untraced_wall_s"][0], "s")
    return {name: {"value": v, "unit": u} for name, (v, u) in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cocyclelab" / "cli.py").is_file():
        print(f"no cocyclelab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = True  # the run leaves no bytecode behind

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be non-negative", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    work = OUT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # third-party and standard-library imports are paid before any timing
    importlib.import_module("cocyclelab.cli")

    try:
        inputs = wl.make_inputs(args.seed, work)
        tracer = None
        if args.trace:
            import tracer as tracer_mod

            tracer = tracer_mod.Tracer()
        setups, rounds, first = run_rounds(inputs, work, args.seconds, tracer)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        problems = wl.check(inputs, first)
        bad_checks = {name for name, p in problems.items() if p}
        for name in sorted(bad_checks):
            for line in problems[name][:5]:
                print(f"CHECK {name}: {line}", file=sys.stderr)
        attempted = sum(len(oks) for _, _, oks in rounds)
        failed = sum(
            1 for _, _, oks in rounds
            for inv, ok in zip(inputs.invocations, oks) if not ok or inv.name in bad_checks
        )
        if tracer is not None:
            metrics = per_layer(tracer, rounds)
        else:
            metrics = end_to_end(setups, rounds, peak_rss_mib)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"{args.workload}: {len(rounds)} rounds of "
          + ", ".join(f"{sum(t):.3f}" for _, t, _ in rounds)
          + f" s; {attempted} invocations, {failed} failed", file=sys.stderr)
    print(json.dumps({"correct": not bad_checks, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
