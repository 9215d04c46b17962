"""Tests of the benchmark itself: seeded inputs, the output checks (a
corrupted data file must be rejected by every workload), the tracer, the
metric names promised in BENCHMARK.json, and the refusal to run without
the program's sources.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracer as tracer_mod
import workloads

sys.path.insert(0, str(run.SRC))

from cocyclelab import cli, cocycle  # noqa: E402


def _inputs(name: str, seed: int, work: Path, keep: tuple[str, ...]):
    inputs = workloads.WORKLOADS[name].make_inputs(seed, work)
    inputs.invocations = [inv for inv in inputs.invocations if inv.name in keep]
    assert [inv.name for inv in inputs.invocations] == list(keep)
    return inputs


def _outputs(inputs, work: Path) -> dict[str, dict[str, str]]:
    out = {}
    for inv in inputs.invocations:
        assert run.invoke(cli.main, inv.argv(work / "out" / inv.name)) == 0
        out[inv.name] = run.read_outputs(work / "out" / inv.name)
    return out


def _nudge(text: str, column: str, row: int = 0) -> str:
    """Scale one numeric cell of a CSV data file by (1 + 1e-6)."""
    lines = text.splitlines()
    header = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    col = lines[header].split(",").index(column)
    cells = lines[header + 1 + row].split(",")
    cells[col] = repr(float(cells[col]) * (1.0 + 1e-6))
    lines[header + 1 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


CASES = [
    ("torus-ladder", ("rates",), "rates", "rates_series.csv", "lambda", 2),
    ("ap-certify", ("verify-cert-000", "verify-cancel-101", "demo-rank2"),
     "verify-cert-000", "ap_verify_factors.csv", "norm", 0),
    ("ap-certify", ("demo-rank2",), "demo-rank2", "ap_demo_projections.csv",
     "max_pair_norm", 3),
    ("random-streams", ("single", "two-rotations"), "single", "random_rates.csv",
     "estimate", 4),
]


@pytest.mark.parametrize("name, keep, target, file, column, row", CASES)
def test_checks_accept_real_outputs_and_reject_a_corrupted_file(
    tmp_path, name, keep, target, file, column, row
):
    inputs = _inputs(name, 7, tmp_path, keep)
    outputs = _outputs(inputs, tmp_path)
    check = workloads.WORKLOADS[name].check
    assert all(not p for p in check(inputs, outputs).values())

    bad = {k: dict(v) for k, v in outputs.items()}
    bad[target][file] = _nudge(outputs[target][file], column, row)
    problems = check(inputs, bad)
    assert problems[target], f"corrupted {file} accepted"
    assert all(not p for k, p in problems.items() if k != target)

    bad[target][file] = "garbage\n1,2\n"
    assert check(inputs, bad)[target]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # the Jacobi fault's own warning
def test_known_fault_fails_and_is_not_a_check_problem(tmp_path):
    inputs = _inputs("ap-certify", 7, tmp_path, ("verify-cert-100",))
    (inv,) = inputs.invocations
    assert inv.known_fault
    assert run.invoke(cli.main, inv.argv(tmp_path / "out" / inv.name)) != 0
    assert workloads.WORKLOADS["ap-certify"].check(inputs, {}) == {inv.name: []}


def test_inputs_depend_only_on_the_seed(tmp_path, monkeypatch):
    def snapshot(seed, sub):
        work = tmp_path / sub
        work.mkdir()
        monkeypatch.chdir(work)  # configs name their data files relative to the cwd
        for wl in workloads.WORKLOADS.values():
            wl.make_inputs(seed, work)
        return {f.name: f.read_bytes() for f in sorted(work.iterdir())}

    a, b, c = snapshot(3, "a"), snapshot(3, "b"), snapshot(4, "c")
    assert a == b
    assert a.keys() == c.keys() and a != c
    assert sum(1 for k in a if k.startswith("verify-")) == 2 * (
        workloads.N_CERTIFIED_D2 + workloads.N_CERTIFIED_D3 + 1 + workloads.N_CANCELLING)


def test_tracer_counts_and_restores():
    fam = cocycle.SchrodingerFamily(
        base=cocycle.golden_base(), dim=2, coupling=3.0, param_values=np.array([0.0])
    )
    originals = (cocycle.CocycleFamily.orbit_lognorms, cocycle.pairwise_mean)
    t = tracer_mod.Tracer()
    t.install()
    try:
        fam.finite_scale_exponents(0.0, 8, 16)
    finally:
        t.uninstall()
    assert (cocycle.CocycleFamily.orbit_lognorms, cocycle.pairwise_mean) == originals
    assert t.counts["cocycle.point_steps"] == 2 * 16 * 8  # p = 1, 2
    assert t.counts["cocycle.evaluate_batch.points"] == 2 * 16 * 8
    assert t.calls["cocycle.orbit_lognorms"] == 2
    # bound into cocycle by ``from .util import pairwise_mean``
    assert t.calls["util.pairwise_mean"] == 2
    assert t.calls["util.pairwise_sum"] == 2  # recursion passes through
    assert 0.0 < t.self_time["cocycle.orbit_lognorms"] < t.total["cocycle.orbit_lognorms"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    rounds = [(False, [1.0, 2.0], [True, True]), (True, [1.5, 2.5], [True, True])]
    e2e = run.end_to_end([0.1, 0.2, 0.3], rounds, 50.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in e2e.items()}
    layers = run.per_layer(tracer_mod.Tracer(), rounds)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in layers.items()}
    assert layers["trace.overhead_s"]["value"] == pytest.approx(1.0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ap-certify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode != 0
    assert res.stdout == ""
