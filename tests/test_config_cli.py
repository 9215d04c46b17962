import json
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from cocyclelab import cocycle
from cocyclelab import config as cfgmod
from cocyclelab.cli import main
from cocyclelab.errors import ConfigError

MINIMAL = """
cocycle.kind = schrodinger
cocycle.coupling = 3.0
"""

HOLDER_SUMMARY_COLUMNS = [
    "j", "E_lo", "E_hi", "n", "gamma_est", "residual", "kappa_min",
    "pairs_used", "pairs_excluded", "zero_variation", "stretched_sigma",
]


class TestParseConfig:
    def test_minimal_fills_defaults(self):
        cfg = cfgmod.parse_config(MINIMAL)
        assert cfg["cocycle.kind"] == "schrodinger"
        assert cfg["numerics.grid"] == 1024  # auto-resolved for nu = 1
        assert cfg["output.format"] == "csv"
        assert cfg["shift.omega"] == "golden"

    def test_grid_zero_names_key(self):
        with pytest.raises(ConfigError, match=r"numerics\.grid"):
            cfgmod.parse_config(MINIMAL + "numerics.grid = 0\n")

    @pytest.mark.parametrize("text, key", [
        ("ldt.scales = 0\n", "ldt.scales"),
        ("random.scales = 0,8\n", "random.scales"),
        ("random.deltas = 0.1\nrandom.ld_scales = 0\n", "random.ld_scales"),
    ], ids=["ldt", "random", "random-ld"])
    def test_non_positive_scale_names_key_and_line(self, text, key):
        line = (MINIMAL + text).count("\n")  # the last line
        with pytest.raises(ConfigError, match=rf"line {line}: value .* for {key} out of range"):
            cfgmod.parse_config(MINIMAL + text)

    def test_unknown_key_with_line_number(self):
        text = "cocycle.kind = schrodinger\nnumerics.gird = 8\n"
        with pytest.raises(ConfigError, match="line 2.*unknown key"):
            cfgmod.parse_config(text)

    def test_duplicate_key(self):
        text = "numerics.seed = 1\nnumerics.seed = 2\n"
        with pytest.raises(ConfigError, match="line 2.*duplicate"):
            cfgmod.parse_config(text)

    def test_malformed_number(self):
        with pytest.raises(ConfigError, match="malformed number"):
            cfgmod.parse_config("cocycle.coupling = three\n")
        with pytest.raises(ConfigError, match="malformed integer"):
            cfgmod.parse_config("numerics.seed = 1.5\n")

    def test_bad_choice(self):
        with pytest.raises(ConfigError, match="output.format"):
            cfgmod.parse_config("output.format = xml\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            cfgmod.parse_config("just some words\n")

    def test_hash_invariant_under_order_whitespace_comments(self):
        a = cfgmod.parse_config(
            "cocycle.kind = schrodinger\nnumerics.seed = 7\nnumerics.grid = 64\n"
        )
        b = cfgmod.parse_config(
            "# reordered\n  numerics.grid=64\n\nnumerics.seed =\t7\n"
            "cocycle.kind =    schrodinger\n"
        )
        assert a.config_hash() == b.config_hash()
        c = cfgmod.parse_config(
            "cocycle.kind = schrodinger\nnumerics.seed = 8\nnumerics.grid = 64\n"
        )
        assert a.config_hash() != c.config_hash()

    def test_explicit_default_hashes_like_omitted(self):
        a = cfgmod.parse_config("cocycle.kind = schrodinger\n")
        b = cfgmod.parse_config("cocycle.kind = schrodinger\noutput.format = csv\n")
        assert a.config_hash() == b.config_hash()


class TestBuilders:
    def test_shift_variants(self):
        assert cfgmod.parse_config("shift.omega = golden\n").shift_base().nu == 1
        cfg = cfgmod.parse_config("shift.nu = 2\nshift.omega = sqrt2-sqrt3\n")
        assert cfg.shift_base().nu == 2
        cfg = cfgmod.parse_config("shift.omega = 0.70710678118654752\n")
        assert cfg.shift_base().omega[0] == pytest.approx(np.sqrt(0.5))
        with pytest.raises(ConfigError):
            cfgmod.parse_config("shift.nu = 2\nshift.omega = golden\n").shift_base()
        with pytest.raises(ConfigError):
            cfgmod.parse_config("shift.omega = 0.1 0.2\n").shift_base()

    def test_cocycle_kinds(self):
        cfg = cfgmod.parse_config(
            "cocycle.kind = constant\ncocycle.dim = 2\ncocycle.entries = 2,0,0,0.5\n"
        )
        fam = cfg.family()
        # a constant matrix is the degree-0 trigonometric polynomial
        assert type(fam) is cocycle.TrigPolyFamily
        assert np.array_equal(fam.cos_coeffs, np.diag([2.0, 0.5])[..., np.newaxis])
        assert fam.sin_coeffs.shape == (2, 2, 0)
        cfg = cfgmod.parse_config(
            "cocycle.kind = diagonal-exp\ncocycle.e_amp = 1,-1\n"
            "param.E_min = 0.1\nparam.E_max = 0.5\nparam.E_count = 2\n"
        )
        assert type(cfg.family()) is cocycle.DiagonalExpFamily
        cfg = cfgmod.parse_config(
            "cocycle.kind = trig-poly\ncocycle.trig_degree = 1\n"
            "cocycle.trig_cos = 2,0, 0,0, 0,0, 2,0\n"
        )
        assert type(cfg.family()) is cocycle.TrigPolyFamily
        assert type(cfgmod.parse_config(MINIMAL).family()) is cocycle.SchrodingerFamily

    def test_entry_count_mismatch(self):
        cfg = cfgmod.parse_config(
            "cocycle.kind = constant\ncocycle.dim = 3\ncocycle.entries = 1,0,0,1\n"
        )
        with pytest.raises(ConfigError, match="entries"):
            cfg.family()

    def test_param_grid(self):
        cfg = cfgmod.parse_config(
            "param.E_min = -1\nparam.E_max = 1\nparam.E_count = 5\n"
        )
        assert np.allclose(cfg.param_grid(), np.linspace(-1, 1, 5))
        bad = cfgmod.parse_config("param.E_min = 1\nparam.E_max = 0\nparam.E_count = 3\n")
        with pytest.raises(ConfigError):
            bad.param_grid()

    def test_distributions(self):
        cfg = cfgmod.parse_config("random.dist = stretch_or_rotate\n")
        (diag, _), (rotation, _) = cfg.distribution().support
        assert np.array_equal(diag, np.diag([2.0, 0.5]))
        assert np.allclose(rotation, [[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]])
        cfg = cfgmod.parse_config("random.dist = single\nrandom.matrix = 2,0,0,0.5\n")
        assert cfg.distribution().dim == 2


class TestMatrixFiles:
    def test_blocks(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("2 0\n0 0.5\n\n1 1\n0 1\n")
        mats = cfgmod.read_matrix_blocks(str(p))
        assert len(mats) == 2
        assert np.allclose(mats[0], [[2, 0], [0, 0.5]])

    def test_non_square_rejected(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("1 2 3\n4 5 6\n")
        with pytest.raises(ConfigError, match="square"):
            cfgmod.read_matrix_blocks(str(p))

    def test_dimension_mismatch_rejected(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("1 0\n0 1\n\n1 0 0\n0 1 0\n0 0 1\n")
        with pytest.raises(ConfigError, match="dimension"):
            cfgmod.read_matrix_blocks(str(p))

    def test_support_file(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("0.5\n2 0\n0 0.5\n\n0.5\n0 -1\n1 0\n")
        support = cfgmod.read_support_file(str(p))
        assert len(support) == 2
        assert support[0][1] == 0.5

    def test_support_file_shares_block_checks(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("0.5\n2 0\n0 0.5\n\n0.5\n1 0 0\n0 1 0\n0 0 1\n")
        with pytest.raises(ConfigError, match="dimension"):
            cfgmod.read_support_file(str(p))
        p.write_text("0.5\n")
        with pytest.raises(ConfigError, match="probability and a matrix"):
            cfgmod.read_support_file(str(p))


def _write(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestCli:
    def test_exponents_constant_17_digits(self, tmp_path):
        cfg = _write(
            tmp_path,
            "cocycle.kind = constant\ncocycle.entries = 2,0,0,0.5\n"
            "numerics.n_max = 16\nnumerics.grid = 4\n",
        )
        runner = CliRunner()
        res = runner.invoke(main, ["exponents", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output
        lines = (tmp_path / "o" / "exponents.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash = ")
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "E,n,j,lambda"
        ln2 = np.log(2.0)
        for row in data[1:]:
            e, n, j, lam = row.split(",")
            assert len(lam.replace("-", "").replace(".", "").lstrip("0")) >= 16
            assert abs(abs(float(lam)) - ln2) <= 1e-12

    def test_ap_verify_two_factors_zero_discrepancy(self, tmp_path):
        mats = tmp_path / "mats.txt"
        mats.write_text("3 0\n0 0.25\n\n1 1\n0.5 2\n")
        cfg = _write(tmp_path, f"ap.matrix_file = {mats}\n")
        runner = CliRunner()
        res = runner.invoke(main, ["ap-verify", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output
        summary = (tmp_path / "o" / "ap_verify_summary.csv").read_text().splitlines()
        head = [l for l in summary if not l.startswith("#")]
        cols = head[0].split(",")
        vals = head[1].split(",")
        assert float(vals[cols.index("discrepancy")]) == 0.0

    def test_ap_verify_one_by_one_factors_exit_1(self, tmp_path):
        # a 1x1 factor has no second singular value, so there is no AP to check
        mats = tmp_path / "mats.txt"
        mats.write_text("2\n\n3\n\n0.5\n")
        cfg = _write(tmp_path, f"ap.matrix_file = {mats}\n")
        res = CliRunner().invoke(main, ["ap-verify", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert "at least 2x2" in res.output
        assert not list((tmp_path / "o").glob("ap_verify*"))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_values_that_do_not_apply_are_empty_not_nan(self, tmp_path, fmt):
        # constant family on a circle: zero variation, and no stretched fit
        holder = _write(
            tmp_path,
            "cocycle.kind = constant\ncocycle.entries = 2,0,0,0.5\n"
            "param.E_min = 0.0\nparam.E_max = 1.0\nparam.E_count = 2\n"
            f"numerics.n_max = 8\nnumerics.grid = 4\noutput.format = {fmt}\n",
            "holder.cfg",
        )
        # d = 1: no second exponent, so no gap to report
        holder_d1 = _write(
            tmp_path,
            "cocycle.kind = diagonal-exp\ncocycle.dim = 1\ncocycle.x_amp = 0\n"
            "cocycle.e_amp = 1\nparam.E_min = 0\nparam.E_max = 1\nparam.E_count = 2\n"
            f"numerics.grid = 4\nnumerics.n_max = 4\noutput.format = {fmt}\n"
            "output.path = holder_d1\n",
            "holder_d1.cfg",
        )
        # a constant family has an empty deviation set: a degenerate fit
        ldt = _write(
            tmp_path,
            "cocycle.kind = constant\ncocycle.entries = 2,0,0,0.5\n"
            f"numerics.n_max = 64\nnumerics.grid = 8\noutput.format = {fmt}\n",
            "ldt.cfg",
        )
        out = tmp_path / "o"
        for sub, cfg in (("holder", holder), ("holder", holder_d1), ("ldt", ldt)):
            res = CliRunner().invoke(main, [sub, "--config", cfg, "--out", str(out)])
            assert res.exit_code == 0, (sub, res.output)
        files = sorted(out.glob(f"*.{fmt}"))
        assert {f.name for f in files} >= {
            f"holder_summary.{fmt}", f"holder_d1_summary.{fmt}", f"ldt_fit.{fmt}"}
        for f in files:
            text = f.read_text().lower()
            assert "nan" not in text and "inf" not in text, f.name
        if fmt == "csv":
            rows = {
                f.stem: [l.split(",") for l in f.read_text().splitlines() if not l.startswith("#")]
                for f in files
            }
            assert rows["holder_summary"][0] == HOLDER_SUMMARY_COLUMNS
            summary = dict(zip(*rows["holder_summary"]))
            assert summary["zero_variation"] == "true"
            assert summary["gamma_est"] == summary["residual"] == summary["stretched_sigma"] == ""
            d1 = dict(zip(*rows["holder_d1_summary"]))
            assert d1["kappa_min"] == "" and d1["zero_variation"] == "false"
            fit = dict(zip(*rows["ldt_fit"]))
            assert fit["degenerate"] == "true"
            assert [fit[k] for k in ("c", "C", "b", "tau", "residual")] == [""] * 5
        else:
            doc = json.loads((out / "holder_summary.json").read_text())
            assert doc["columns"] == HOLDER_SUMMARY_COLUMNS
            row = dict(zip(doc["columns"], doc["rows"][0]))
            assert row["gamma_est"] is None and row["stretched_sigma"] is None
            doc = json.loads((out / "holder_d1_summary.json").read_text())
            assert dict(zip(doc["columns"], doc["rows"][0]))["kappa_min"] is None

    @pytest.mark.parametrize("line", [
        "random.bins = 64", "numerics.tol_quad = 1e-6", "output.precision = 17",
        "cocycle.beta0 = 1.0",
    ], ids=["random.bins", "numerics.tol_quad", "output.precision", "cocycle.beta0"])
    def test_removed_key_exit_1(self, tmp_path, line):
        cfg = _write(tmp_path, f"random.dist = single\n{line}\n")
        res = CliRunner().invoke(main, ["random", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert "line 2: unknown key" in res.output

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_untriggered_verdict_writes_empty_cells(self, tmp_path, fmt):
        # diag(2, 1/2): every estimate is exactly ln 2, so the dichotomy never
        # triggers and no second difference is positive to fit c1 from
        cfg = _write(
            tmp_path,
            "random.dist = single\nrandom.matrix = 2.0,0.0,0.0,0.5\n"
            f"random.trials = 20\nnumerics.n_max = 64\noutput.format = {fmt}\n",
        )
        out = tmp_path / "o"
        res = CliRunner().invoke(main, ["random", "--config", cfg, "--out", str(out)])
        assert res.exit_code == 0, res.output
        text = (out / f"random_verdict.{fmt}").read_text()
        if fmt == "csv":
            head, vals = [l.split(",") for l in text.splitlines() if not l.startswith("#")]
            row = dict(zip(head, vals))
            assert row["c1"] == "0.050000000000000003"
            assert row["c1_est"] == row["trigger_scale"] == ""
        else:
            doc = json.loads(text)
            row = dict(zip(doc["columns"], doc["rows"][0]))
            assert row["c1_est"] is None and row["trigger_scale"] is None

    @pytest.mark.parametrize("sub, key", [
        ("rates", "rates.j"), ("dichotomy", "rates.j"), ("holder", "holder.j"),
    ])
    def test_exponent_index_beyond_dimension_exit_1(self, tmp_path, sub, key):
        cfg = _write(
            tmp_path,
            MINIMAL + "param.E_min = 0.0\nparam.E_max = 0.5\nparam.E_count = 2\n"
            f"numerics.n_max = 64\nnumerics.grid = 16\n{key} = 3\n",
        )
        res = CliRunner().invoke(main, [sub, "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.startswith("error: exponent index j=3 out of range 1..2")
        assert "Traceback" not in res.output

    def test_validation_failure_exit_1(self, tmp_path):
        cfg = _write(tmp_path, "numerics.grid = 0\n")
        runner = CliRunner()
        res = runner.invoke(main, ["exponents", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 1

    def test_singular_family_exit_1(self, tmp_path):
        cfg = _write(tmp_path, "cocycle.kind = constant\ncocycle.entries = 1,0,0,0\n")
        res = CliRunner().invoke(main, ["exponents", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert res.stderr.startswith("error: family is numerically singular at t=0.0, E=0.0")
        assert not list((tmp_path / "o").glob("exponents*"))

    def test_overflowing_family_exit_1(self, tmp_path):
        # exp(800) overflows: the entries are not finite, which is not singularity
        cfg = _write(tmp_path, "cocycle.kind = diagonal-exp\ncocycle.x_amp = 800,-800\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = CliRunner().invoke(
                main, ["exponents", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert res.stderr.startswith("error: family has non-finite entries at t=0.0, E=0.0")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_family_beyond_square_range_refused_by_the_product(self, tmp_path):
        # construction sees a well-conditioned diag(1e200, 1e190); the order-1
        # product runs on its entries, but the top order's factor, the 1x1
        # determinant 1e390, is not a float, which is exit 2
        cfg = _write(tmp_path, "cocycle.kind = constant\ncocycle.entries = 1e200,0,0,1e190\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = CliRunner().invoke(
                main, ["exponents", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "degenerate factor in scaled product at step 1" in res.stderr
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_top_exponent_beyond_square_range(self, tmp_path):
        # rates reads lambda_1 alone: ln 1e200 at every scale, with no warning
        cfg = _write(tmp_path, "cocycle.kind = constant\ncocycle.entries = 1e200,0,0,1e190\n"
                               "numerics.grid = 8\nnumerics.n_max = 32\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = CliRunner().invoke(main, ["rates", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output
        rows = [line.split(",") for line in
                (tmp_path / "o" / "rates_series.csv").read_text().splitlines()
                if not line.startswith("#")]
        assert rows[0][:2] == ["n", "lambda"] and len(rows) > 2
        for n, lam, *_ in rows[1:]:
            assert abs(float(lam) - np.log(1e200)) <= 1e-15 * np.log(1e200), n

    def test_numerical_refusal_exit_2(self, tmp_path):
        cfg = _write(
            tmp_path,
            "cocycle.kind = constant\ncocycle.entries = 2,0,0,0.5\n"
            "param.E_min = 0.0\nparam.E_max = 1.0\nparam.E_count = 2\n"
            "numerics.n_max = 8\nnumerics.grid = 4\nholder.kappa = 100.0\n",
        )
        runner = CliRunner()
        res = runner.invoke(main, ["holder", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 2

    def test_byte_identical_reruns(self, tmp_path):
        cfg = _write(
            tmp_path,
            "random.dist = stretch_or_rotate\nrandom.trials = 40\n"
            "numerics.n_max = 64\nnumerics.seed = 9\n"
            "random.deltas = 0.1\nrandom.ld_scales = 16,64\n",
        )
        runner = CliRunner()
        outs = []
        for name in ("a", "b"):
            res = runner.invoke(
                main, ["random", "--config", cfg, "--out", str(tmp_path / name)]
            )
            assert res.exit_code == 0, res.output
            outs.append({
                f.name: f.read_bytes()
                for f in sorted((tmp_path / name).glob("random_*.csv"))
            })
        assert outs[0] and outs[0] == outs[1]

    @pytest.mark.parametrize("text", ["", "# no blocks\n\n# at all\n"])
    def test_support_file_without_blocks_exit_1(self, tmp_path, text):
        support = tmp_path / "s.txt"
        support.write_text(text)
        cfg = _write(tmp_path, f"random.dist = file\nrandom.support_file = {support}\n")
        res = CliRunner().invoke(main, ["random", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "support file holds no matrices" in res.output

    def test_seed_override_changes_hash(self, tmp_path):
        cfg = _write(tmp_path, "random.dist = two_rotations\nnumerics.n_max = 32\nrandom.trials = 8\n")
        runner = CliRunner()
        for name, args in (("s1", []), ("s2", ["--seed", "123"])):
            res = runner.invoke(
                main, ["random", "--config", cfg, "--out", str(tmp_path / name)] + args
            )
            assert res.exit_code == 0, res.output
        h1 = (tmp_path / "s1" / "random_rates.csv").read_text().splitlines()[0]
        h2 = (tmp_path / "s2" / "random_rates.csv").read_text().splitlines()[0]
        assert h1 != h2

    @pytest.mark.parametrize("config, seed, message", [
        ("exp.cfg", "-1", "error: --seed must fit in 64 bits\n"),
        ("missing.cfg", "1", "error: cannot read config: [Errno 2] "),
    ], ids=["negative-seed", "missing-config"])
    def test_bad_option_exit_1(self, tmp_path, config, seed, message):
        _write(tmp_path, "random.dist = two_rotations\nnumerics.n_max = 32\n")
        res = CliRunner().invoke(main, ["random", "--config", str(tmp_path / config),
                                        "--out", str(tmp_path / "o"), "--seed", seed])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert res.stderr.startswith(message)
        assert not (tmp_path / "o").exists()

    def test_every_header_and_the_manifest_carry_the_seeded_config(self, tmp_path):
        # the seed override comes before the run formats its config text
        mats = tmp_path / "mats.txt"
        mats.write_text("3 0\n0 0.25\n\n1 1\n0.5 2\n\n2 1\n0 0.5\n")
        path = _write(tmp_path, f"ap.matrix_file = {mats}\n")
        out = tmp_path / "o"
        res = CliRunner().invoke(main, ["ap-verify", "--config", path, "--out", str(out),
                                        "--seed", "5"])
        assert res.exit_code == 0, res.output
        resolved = cfgmod.parse_config_file(path)
        assert resolved["numerics.seed"] != 5
        resolved.values["numerics.seed"] = 5
        header = [f"# config_hash = {resolved.config_hash()}"]
        header += [f"# {line}" for line in resolved.canonical_text().splitlines()]
        assert "# numerics.seed = 5" in header
        files = sorted(out.glob("*.csv"))
        assert [f.name for f in files] == [
            "ap_verify_factors.csv", "ap_verify_pairs.csv", "ap_verify_summary.csv"]
        for f in files:
            assert f.read_text().splitlines()[:len(header)] == header
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == resolved.config_hash()

    def test_manifest_contents(self, tmp_path):
        cfg = _write(
            tmp_path,
            "cocycle.kind = constant\ncocycle.entries = 2,0,0,0.5\n"
            "numerics.n_max = 8\nnumerics.grid = 4\n",
        )
        runner = CliRunner()
        res = runner.invoke(main, ["exponents", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["subcommand"] == "exponents"
        assert manifest["row_counts"]["exponents.csv"] > 0
        assert "compute" in manifest["stages_seconds"]
        assert len(manifest["config_hash"]) == 64

    def test_json_output_round_trips(self, tmp_path):
        cfg = _write(
            tmp_path,
            "cocycle.kind = constant\ncocycle.entries = 2,0,0,0.5\n"
            "numerics.n_max = 8\nnumerics.grid = 4\noutput.format = json\n",
        )
        runner = CliRunner()
        res = runner.invoke(main, ["exponents", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 0
        doc = json.loads((tmp_path / "o" / "exponents.json").read_text())
        assert doc["columns"] == ["E", "n", "j", "lambda"]
        lam = doc["rows"][0][3]
        assert lam == np.log(2.0)  # exact float round-trip

    def test_dioph_runs_and_rejects_two_torus(self, tmp_path):
        cfg = _write(tmp_path, "numerics.n_max = 500\n")
        runner = CliRunner()
        res = runner.invoke(main, ["dioph", "--config", cfg, "--out", str(tmp_path / "o")])
        assert res.exit_code == 0
        cfg2 = _write(tmp_path, "shift.nu = 2\nshift.omega = sqrt2-sqrt3\nnumerics.n_max = 100\n", "two.cfg")
        res = runner.invoke(main, ["dioph", "--config", cfg2, "--out", str(tmp_path / "o2")])
        assert res.exit_code == 1

    def test_ldt_and_rates_and_dichotomy_run(self, tmp_path):
        cfg = _write(
            tmp_path,
            "cocycle.kind = schrodinger\ncocycle.coupling = 3.0\n"
            "numerics.n_max = 128\nnumerics.grid = 64\n",
        )
        runner = CliRunner()
        for sub in ("ldt", "rates", "dichotomy"):
            res = runner.invoke(main, [sub, "--config", cfg, "--out", str(tmp_path / "o")])
            assert res.exit_code == 0, (sub, res.output)
        prof = (tmp_path / "o" / "ldt_profile.csv").read_text()
        assert "n,delta,measure,grid" in prof

    def test_ap_demo_runs(self, tmp_path):
        cfg = _write(tmp_path, "ap.mode = rank2\nap.thetas = 0.4,1.0\n")
        runner = CliRunner()
        res = runner.invoke(
            main, ["ap-demo-projections", "--config", cfg, "--out", str(tmp_path / "o")]
        )
        assert res.exit_code == 0
        text = (tmp_path / "o" / "ap_demo_projections.csv").read_text()
        rows = [l for l in text.splitlines() if not l.startswith("#")][1:]
        for row in rows:
            assert abs(float(row.split(",")[1]) - 1.0) <= 1e-12
