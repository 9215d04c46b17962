"""Edge configs through every subcommand, in-process on small grids.

Each row is a config (and any matrix or support file it names) with the
exit code it must give.  Every invocation must exit 0, 1 or 2 with no
escaped exception and no RuntimeWarning; a success writes no ``nan`` or
``inf`` cell, and exits 1 and 2 write no data file and print an ``error:``
or ``refused:`` line.
"""

import time
import warnings

import pytest
from click.testing import CliRunner

from cocyclelab.cli import main

SMALL = "numerics.grid = 8\nnumerics.n_max = 32\ndichotomy.l0 = 4\n"
WINDOW = "param.E_min = 0.0\nparam.E_max = 0.5\nparam.E_count = 2\n"
ORBIT = ("exponents", "ldt", "rates", "dichotomy", "holder")

#: family configs, each run through every orbit subcommand: the exit code
#: of those runs, and the subcommands that give another
FAMILIES = {
    # well conditioned, with a squared Frobenius norm beyond the float range:
    # the product runs on its entries, but exponents and holder need the top
    # order, whose determinant 1e390 is not a float
    "constant-beyond-square-range": (
        "cocycle.kind = constant\ncocycle.entries = 1e200,0,0,1e190\n" + WINDOW, 0,
        {"exponents": 2, "holder": 2}),
    # exp(700 * cos) is finite; the construction check finds the family singular
    "diagonal-exp-700": ("cocycle.kind = diagonal-exp\ncocycle.x_amp = 700,-700\n", 1, {}),
    "schrodinger-E+1e200": ("param.E_min = 1e200\n", 1, {}),
    "schrodinger-E-1e200": ("param.E_min = -1e200\n", 1, {}),
    # the free operator has no gap between its two exponents to run holder on
    "schrodinger-coupling-0": ("cocycle.coupling = 0\n" + WINDOW, 0, {"holder": 2}),
    "constant-1x1": ("cocycle.kind = constant\ncocycle.dim = 1\ncocycle.entries = 2\n"
                     + WINDOW, 0, {}),
    "schrodinger-nu2": ("cocycle.coupling = 3\nshift.nu = 2\nshift.omega = sqrt2-sqrt3\n"
                        + WINDOW, 0, {}),
    # sqrt2 - 1 and 2 - sqrt2 are irrational, but Omega is exactly 1: a frozen orbit
    "schrodinger-nu2-omega-sum-1": (
        "shift.nu = 2\nshift.omega = 0.41421356237309515, 0.5857864376269049\n", 1, {}),
    # gap >= 1 at every energy, while one step grows by up to e^80
    "diagonal-exp-e_amp-40": ("cocycle.kind = diagonal-exp\ncocycle.e_amp = 40,39\n"
                              "param.E_min = 1\nparam.E_max = 2\nparam.E_count = 2\n", 0, {}),
    # a sampling series without even its constant term
    "schrodinger-empty-sampling": ("cocycle.sampling_cos =\n", 1, {}),
    "schrodinger-dim-3": ("cocycle.dim = 3\n", 1, {}),
    "diagonal-exp-3-x_amp": ("cocycle.kind = diagonal-exp\ncocycle.x_amp = 1,2,3\n", 1, {}),
    "trig-poly-short-sin": ("cocycle.kind = trig-poly\ncocycle.trig_cos = 1,0,0,0,0,0,1,0\n"
                            "cocycle.trig_sin = 0,0\n", 1, {}),
    "omega-sqrt2-sqrt3-nu1": ("shift.omega = sqrt2-sqrt3\n", 1, {}),
    "omega-abc": ("shift.omega = abc\n", 1, {}),
    "coupling-inf": ("cocycle.coupling = inf\n", 1, {}),
}

#: matrix files for ap-verify: blocks separated by blank lines
MATRICES = {
    "beyond-square-range": ("1e200 0\n0 1e190\n\n" * 3, 2),
    "below-square-range": ("1e-200 0\n0 1e-210\n\n" * 3, 2),
    # finite entries, but sigma_1 leaves the float range: refused, no warning
    "beyond-float-range": ("1.7e308 1.7e308\n0 1\n\n2 0\n0 1\n", 2),
    "one-by-one-zero": ("0\n\n2\n", 1),
    "one-by-one": ("2\n\n3\n", 1),
    "nan-entry": ("1 nan\n0 1\n\n2 0\n0 1\n", 1),
    "inf-entry": ("1 0\n0 1\n\n2 inf\n0 1\n", 1),
    "malformed-number": ("2 x\n0 1\n\n2 0\n0 1\n", 1),
    "diagonal": ("2 0\n0 1\n\n2 0\n0 1\n", 0),
}

#: support files for random.dist = file: a probability line, then the rows
SUPPORTS = {
    "nan-entry": ("0.5\n1 nan\n0 1\n\n0.5\n2 0\n0 0.5\n", 1),
    "inf-entry": ("0.5\n1 0\n0 1\n\n0.5\n2 0\ninf 0.5\n", 1),
    "nan-probability": ("nan\n1 0\n0 1\n\n0.5\n2 0\n0 0.5\n", 1),
    "singular": ("0.5\n1 0\n0 0\n\n0.5\n2 0\n0 0.5\n", 2),
    "upper-triangular": ("0.5\n2 1\n0 0.5\n\n0.5\n0.5 3\n0 2\n", 0),
}

RANDOM = "random.trials = 8\nrandom.ld_scales = 8\nnumerics.n_max = 32\n"

#: random configs without a support file
DISTS = {
    "rotated-stretch-pair": (RANDOM, 0),  # the default random.dist
    "uniform-rotation": (RANDOM + "random.dist = uniform_rotation\n", 0),
    # its product runs on its entries, as the constant family's does
    "single-beyond-square-range": (
        RANDOM + "random.dist = single\nrandom.matrix = 1e200,0,0,1e190\n", 0),
    # the ladder from 8 needs n_max >= 16
    "n_max-8": (RANDOM.replace("n_max = 32", "n_max = 8"), 1),
    "single-3-entries": (RANDOM + "random.dist = single\nrandom.matrix = 1,2,3\n", 1),
    "two-rotations-3-angles": (
        RANDOM + "random.dist = two_rotations\nrandom.angles = 0.1,0.2,0.3\n", 1),
    "file-without-support-file": (RANDOM + "random.dist = file\n", 1),
    "negative-delta": (RANDOM + "random.deltas = -0.1\n", 1),
}

#: the start of the stderr a case must print, where its exit code alone does
#: not show the cause; keyed by case id, or by a family name for every
#: orbit subcommand of that family
MESSAGES = {
    "ldt/n_max-16": "error: numerics.n_max too small for a ladder from 16\n",
    "random/n_max-8": "error: numerics.n_max too small for a ladder from 8\n",
    "ldt/p-3": "error: compound order p=3 out of range 1..2\n",
    "holder/E_count-1": "error: window must have positive width\n",
    "dioph/dio_exponent-1": "error: line 4: value 1.0 for shift.dio_exponent out of range\n",
    "ap-verify/mu-negative": "error: mu must be positive\n",
    "ap-verify/no-matrix-file": "error: ap.matrix_file is required for ap-verify\n",
    "ap-verify/missing-file": "error: cannot read matrix file: [Errno 2] ",
    "ap-verify/malformed-number": "error: malformed number in matrix block 0\n",
    "schrodinger-dim-3": "error: cocycle.kind = schrodinger requires cocycle.dim = 2\n",
    "diagonal-exp-3-x_amp": "error: cocycle.x_amp / e_amp must have dim entries\n",
    "trig-poly-short-sin": "error: cocycle.trig_sin needs 4 values, got 2\n",
    "random/single-3-entries": "error: random.matrix must hold a square matrix\n",
    "random/two-rotations-3-angles": "error: random.angles needs exactly two angles\n",
    "random/file-without-support-file": "error: random.dist = file requires random.support_file\n",
    "random/negative-delta": "error: delta must be positive\n",
    "omega-sqrt2-sqrt3-nu1": "error: shift.omega = sqrt2-sqrt3 requires shift.nu = 2\n",
    "omega-abc": "error: malformed shift.omega component in 'abc'\n",
    "coupling-inf": "error: line 4: non-finite value for cocycle.coupling\n",
}


def _cases(tmp_path):
    """``(id, subcommand, config text, expected exit code)`` per invocation."""
    cases = []
    for name, (text, code, other) in FAMILIES.items():
        cases += [(f"{sub}/{name}", sub, SMALL + text, other.get(sub, code)) for sub in ORBIT]
    cases += [("dioph/golden", "dioph", SMALL, 0),
              ("dioph/nu2", "dioph", SMALL + "shift.nu = 2\nshift.omega = sqrt2-sqrt3\n", 1),
              ("dioph/dio_exponent-1", "dioph", SMALL + "shift.dio_exponent = 1\n", 1),
              ("ldt/n_max-16", "ldt", SMALL.replace("n_max = 32", "n_max = 16"), 1),
              ("ldt/p-3", "ldt", SMALL + "ldt.p = 3\n", 1),
              ("holder/E_count-1", "holder", SMALL + "param.E_count = 1\n", 1)]
    for name, (text, code) in MATRICES.items():
        path = tmp_path / f"matrices-{name}.txt"
        path.write_text(text)
        cases.append((f"ap-verify/{name}", "ap-verify", f"ap.matrix_file = {path}\n", code))
    cases += [("ap-verify/mu-negative", "ap-verify",
               f"ap.mu = -1\nap.matrix_file = {tmp_path / 'matrices-diagonal.txt'}\n", 1),
              ("ap-verify/no-matrix-file", "ap-verify", "", 1),
              ("ap-verify/missing-file", "ap-verify",
               f"ap.matrix_file = {tmp_path / 'missing.txt'}\n", 1)]
    cases.append(("ap-demo-projections/rank2", "ap-demo-projections", "ap.mode = rank2\n", 0))
    for name, (text, code) in SUPPORTS.items():
        path = tmp_path / f"support-{name}.txt"
        path.write_text(text)
        cases.append((f"random/{name}", "random",
                       RANDOM + f"random.dist = file\nrandom.support_file = {path}\n", code))
    cases += [(f"random/{name}", "random", text, code) for name, (text, code) in DISTS.items()]
    return cases


def _bad_cells(path) -> list[str]:
    """Data cells of a CSV file that read as ``nan`` or an infinity."""
    bad = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        for cell in line.split(","):
            try:
                value = float(cell)
            except ValueError:
                continue
            if value != value or value in (float("inf"), float("-inf")):
                bad.append(cell)
    return bad


def test_edge_configs(tmp_path):
    t0 = time.monotonic()
    problems = []
    for ident, sub, text, want in _cases(tmp_path):
        cfg = tmp_path / f"{ident.replace('/', '-')}.cfg"
        cfg.write_text(text)
        out = tmp_path / "out" / ident.replace("/", "-")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = CliRunner().invoke(main, [sub, "--config", str(cfg), "--out", str(out)])
        if res.exception is not None and not isinstance(res.exception, SystemExit):
            problems.append(f"{ident}: escaped {res.exception!r}")
        if res.exit_code != want:
            problems.append(f"{ident}: exit {res.exit_code}, expected {want}: {res.output!r}")
        line = MESSAGES.get(ident, MESSAGES.get(ident.split("/")[1],
                                                {0: "", 1: "error: ", 2: "refused: "}[want]))
        if not res.stderr.startswith(line):
            problems.append(f"{ident}: stderr {res.stderr!r}, expected {line!r}...")
        runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        if runtime:
            problems.append(f"{ident}: RuntimeWarning {runtime}")
        files = sorted(out.iterdir()) if out.is_dir() else []
        if res.exit_code != 0 and files:
            problems.append(f"{ident}: exit {res.exit_code} left {[f.name for f in files]}")
        for f in files:
            if f.suffix == ".csv" and _bad_cells(f):
                problems.append(f"{ident}: {f.name} has cells {_bad_cells(f)}")
    elapsed = time.monotonic() - t0
    assert not problems, "\n".join(problems)
    assert elapsed < 5.0, f"{elapsed:.1f}s"


@pytest.mark.parametrize("n_min, n_max", [(3, 64), (4, 48), (5, 64)])
def test_rate_ladder_off_n_max_exit_1(tmp_path, n_min, n_max):
    # the dyadic ladder from n_min must end at n_max; 3, 6, ..., 48 does not
    for sub in ("rates", "dichotomy"):
        cfg = tmp_path / "rates.cfg"
        cfg.write_text(f"numerics.grid = 8\nnumerics.n_max = {n_max}\nrates.n_min = {n_min}\n")
        res = CliRunner().invoke(main, [sub, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert res.exit_code == 1, res.output
        assert res.stderr.startswith("error: ")
        assert not list((tmp_path / "o").glob(f"{sub}*"))
