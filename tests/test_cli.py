"""CLI subcommands, exit codes, CSV determinism, config merging."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from congeg.cli import main

CSV_HEADER = "x,alpha,value"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_weight3_listing(self, capsys):
        code, out, err = run(capsys, "table", "--n-max", "4", "--lambda", "3")
        assert code == 0 and err == ""
        assert out.splitlines() == ["1", "6 x^a", "24 x^2a - 3",
                                    "80 x^3a - 24 x^a",
                                    "240 x^4a - 120 x^2a + 6"]

    def test_rational_weight(self, capsys):
        code, out, _ = run(capsys, "table", "--n-max", "2", "--lambda", "5/2")
        assert code == 0
        assert out.splitlines()[2] == "35/2 x^2a - 5/2"

    def test_domain_error_exits_2(self):
        # table has no order to get wrong: it prints x^a symbolically, so
        # --alpha is no option and argparse refuses it
        with pytest.raises(SystemExit) as info:
            main(["table", "--alpha", "1/2"])
        assert info.value.code == 2

    @pytest.mark.parametrize("command", ["table", "audit"])
    def test_negative_degree_exits_2(self, capsys, command):
        code, out, err = run(capsys, command, "--n-max", "-1")
        assert code == 2 and out == ""
        assert err == "error: --n-max must be a nonnegative integer, got -1\n"

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["table", "--alpha", "zebra"])
        assert info.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2


class TestEval:
    def test_csv_values(self, capsys):
        code, out, _ = run(capsys, "eval", "--n", "1", "--lambda", "3",
                           "--alpha", "1/2", "--x", "0.5", "1.0")
        assert code == 0
        assert out.splitlines() == [CSV_HEADER,
                                    "0.5,0.5,4.242640687119286",
                                    "1.0,0.5,6.0"]

    def test_negative_axis(self, capsys):
        code, out, _ = run(capsys, "eval", "--n", "1", "--lambda", "3",
                           "--alpha", "1/2", "--x", "-0.5")
        assert code == 0
        assert out.splitlines()[1] == "-0.5,0.5,-4.242640687119286"

    def test_missing_points_exits_2(self, capsys):
        code, _, err = run(capsys, "eval", "--n", "1")
        assert code == 2
        assert "--x" in err

    def test_missing_degree_exits_2(self, capsys):
        code, _, err = run(capsys, "eval", "--x", "0.5")
        assert code == 2
        assert "--n" in err

    @pytest.mark.parametrize("points", [["--x", "nan", "2"], ["--x", "inf", "2"],
                                        ["--x", "-inf"], ["--x=-inf"]])
    def test_non_finite_point_exits_2(self, capsys, points):
        # these once printed nan with exit 0; argparse reads a bare -inf as
        # an option and exits 2 itself
        argv = ["eval", "--n", "2", "--lambda", "3", "--alpha", "1", *points]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "error: " in err

    def test_non_finite_config_point_exits_2(self, tmp_path, capsys):
        # Python's json reads NaN and Infinity
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n": 2, "lambda": "3", "alpha": "1", "x": [NaN]}')
        code, out, err = run(capsys, "eval", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    def test_order_that_rounds_to_zero_exits_2(self, capsys):
        # 1e-400 lies in (0, 1] as a rational but is 0.0 as a float
        code, out, err = run(capsys, "eval", "--n", "2", "--x", "0.5", "--alpha", "1e-400")
        assert (code, out) == (2, "")
        assert err == "error: order rounds to 0.0 as a float, outside (0, 1]\n"


class TestPlotData:
    def test_default_shape(self, capsys):
        code, out, _ = run(capsys, "plot-data")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 4 * 201
        alphas = [line.split(",")[1] for line in lines[1:]]
        assert alphas == (["0.5"] * 201 + ["0.7"] * 201
                          + ["0.9"] * 201 + ["1.0"] * 201)
        xs = [float(line.split(",")[0]) for line in lines[1:202]]
        assert xs == sorted(xs) and xs[0] == 0.0 and xs[-1] == 1.0

    def test_endpoint_is_order_independent(self, capsys):
        _, out, _ = run(capsys, "plot-data", "--n", "4")
        end_rows = [line for line in out.splitlines()[1:]
                    if line.startswith("1.0,")]
        assert len(end_rows) == 4
        assert all(line.split(",")[2] == "126.0" for line in end_rows)

    def test_signed_domain(self, capsys):
        code, out, _ = run(capsys, "plot-data", "--n", "3", "--samples", "5",
                           "--alpha", "1/2", "--signed-domain")
        assert code == 0
        lines = out.splitlines()[1:]
        assert [row.split(",")[0] for row in lines] == \
            ["-1.0", "-0.5", "0.0", "0.5", "1.0"]
        # odd degree, signed powers: antisymmetric column
        values = [float(row.split(",")[2]) for row in lines]
        assert values[0] == -values[-1] and values[1] == -values[-2]
        assert values[2] == 0.0

    def test_out_file_and_determinism(self, tmp_path, capsys):
        target = tmp_path / "curves.csv"
        code, out, _ = run(capsys, "plot-data", "--n", "2", "--samples", "9",
                           "--out", str(target))
        assert code == 0 and "wrote" in out
        first = target.read_bytes()
        run(capsys, "plot-data", "--n", "2", "--samples", "9",
            "--out", str(target))
        assert target.read_bytes() == first

    def test_bad_samples_exits_2(self, capsys):
        code, _, err = run(capsys, "plot-data", "--samples", "1")
        assert code == 2 and "samples" in err

    def test_orders_that_round_to_one_float_are_one_curve(self, capsys):
        # two different rationals, both printed and evaluated as 0.3333333333333333
        _, once, _ = run(capsys, "plot-data", "--n", "2", "--alpha", "1/3")
        code, out, _ = run(capsys, "plot-data", "--n", "2", "--alpha", "1/3",
                           "--alpha", "0.3333333333333333333333")
        assert code == 0 and out == once
        assert len(out.splitlines()) == 1 + 201
        # the curves stay in sorted order
        _, out, _ = run(capsys, "plot-data", "--n", "2", "--samples", "2", "--alpha", "1",
                        "--alpha", "0.3333333333333333333333", "--alpha", "1/3")
        assert [line.split(",")[1] for line in out.splitlines()[1:]] == \
            ["0.3333333333333333"] * 2 + ["1.0"] * 2


class TestVerify:
    def test_clean_run_exits_0(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "4")
        assert code == 0
        assert "constructor-agreement" in out
        assert "status: exact-pass" in out
        assert "(recorded audit; does not gate the run)" in out
        assert "asserted: 9/9 passed" in out

    def test_recorded_entries_always_present(self, capsys):
        _, out, _ = run(capsys, "verify", "--n-max", "4")
        for identity in ("ultraspherical-ode-variant-operator",
                         "ultraspherical-series-form",
                         "ultraspherical-rodrigues-normalization",
                         "chebyshev-rodrigues-limit",
                         "chebyshev-derivative-ladder"):
            assert f"identity: {identity}" in out

    def test_injected_defect_exits_1(self, capsys, defective_member):
        code, out, _ = run(capsys, "verify", "--n-max", "4")
        assert code == 1
        assert "status: fail" in out

    def test_inject_defect_flag_is_gone(self):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--inject-defect"])
        assert info.value.code == 2

    def test_inject_defect_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"inject_defect": True}))
        code, out, err = run(capsys, "verify", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == ("error: config key 'inject_defect' is not an option of "
                       "the 'verify' subcommand\n")

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "4", "--json")
        assert code == 0
        data = json.loads(out)
        assert {d["identity"] for d in data} >= {"constructor-agreement",
                                                 "normalization-audit",
                                                 "orthogonality"}

    def test_too_small_grid_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--n-max", "1")
        assert code == 2 and "n-max" in err

    def test_single_suite_selection(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "4", "--suite", "ode")
        assert code == 0
        assert "identity: ode-annihilation" in out
        assert "identity: constructor-agreement" not in out
        assert "asserted: 1/1 passed" in out
        # recorded audits ride along regardless of the suite choice
        assert "identity: chebyshev-rodrigues-limit" in out

    def test_suite_ode_with_defect_exits_1(self, capsys, defective_member):
        code, out, _ = run(capsys, "verify", "--n-max", "4", "--suite", "ode")
        assert code == 1
        assert "witness" in out

    def test_suite_normalization_audit_flags_without_failing(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "4",
                           "--suite", "normalization-audit")
        assert code == 0
        assert "degree 0, weight 1, order 1" in out

    def test_bad_suite_from_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": "bogus"}))
        code, _, err = run(capsys, "verify", "--config", str(cfg))
        assert code == 2 and "suite" in err


class TestAuditCommand:
    def test_stdout_csv(self, capsys):
        code, out, _ = run(capsys, "audit", "--n-max", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ("n,lambda,alpha,quadrature,closed_form,"
                            "gamma_product,derived,rel_diff_quadrature_vs_derived")
        assert len(lines) == 1 + 2 * 3 * 2

    def test_out_file_with_report(self, tmp_path, capsys):
        target = tmp_path / "audit.csv"
        code, out, _ = run(capsys, "audit", "--n-max", "1", "--out", str(target))
        assert code == 0
        assert target.exists()
        assert "normalization-audit" in out
        assert "nan" in target.read_text()  # order 1/2 pole rows

    @pytest.mark.parametrize("n_max,code", [(165, 0), (166, 2)])
    def test_float_overflow_exits_2(self, tmp_path, capsys, n_max, code):
        # from degree 166 math.gamma overflows; the OverflowError once escaped
        # main as a traceback with exit 1, the code for a failed verification
        target = tmp_path / "audit.csv"
        got, out, err = run(capsys, "audit", "--n-max", str(n_max), "--out", str(target))
        assert got == code
        if code:
            assert out == "" and not target.exists()
            assert err == ("error: n=166, weight=3, order=1/4: the normalization "
                           "values overflow a float\n")
        else:
            assert err == "" and target.exists()

    @pytest.mark.parametrize("tol", ["inf", "nan", "1", "0", "-0.5"])
    def test_tolerance_outside_unit_interval_exits_2(self, capsys, tol):
        code, out, err = run(capsys, "audit", "--n-max", "1", "--tol", tol)
        assert code == 2 and out == ""
        assert "error: --tol " in err


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", [("plot-data", "--n", "1", "--samples", "2"),
                                     ("audit", "--n-max", "1")], ids=lambda c: c[0])
def test_empty_out_exits_2(tmp_path, monkeypatch, capsys, command, source):
    # an empty --out once sent the CSV to stdout with exit 0
    monkeypatch.chdir(tmp_path)
    argv = list(command)
    if source == "flag":
        argv += ["--out", ""]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({"out": ""}))
        argv += ["--config", "cfg.json"]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses the flag itself
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "error: " in err and "empty path" in err
    assert [p.name for p in tmp_path.iterdir()] == (["cfg.json"] if source == "config" else [])


@pytest.mark.parametrize("argv,message", [
    ("eval --n 2 --alpha 0 --x 0.5", "order must lie in (0, 1], got 0"),
    ("eval --n -1 --alpha 0 --x 0.5", "degree must be a nonnegative integer, got -1"),
    ("eval --n 2 --lambda 0 --alpha 0 --x 0.5", "weight parameter must be positive, got 0"),
    ("plot-data --n 2 --alpha 1/2 --alpha 3/2", "order must lie in (0, 1], got 3/2"),
    ("plot-data --n 2 --alpha 2 --alpha 3/2", "order must lie in (0, 1], got 3/2"),
    ("plot-data --n 2 --lambda -1 --alpha 3/2", "weight parameter must be positive, got -1"),
])
def test_order_is_checked_after_degree_and_weight(capsys, argv, message):
    # the order enters only where a float is made, yet is still refused
    # before any output, after the degree and the weight, lowest first
    code, out, err = run(capsys, *argv.split())
    assert (code, out, err) == (2, "", f"error: {message}\n")


class TestConfigFile:
    def test_values_fill_unset_options(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_max": 2, "lambda": "5/2"}))
        code, out, _ = run(capsys, "table", "--config", str(cfg))
        assert code == 0
        assert out.splitlines() == ["1", "5 x^a", "35/2 x^2a - 5/2"]

    def test_explicit_flag_wins(self, tmp_path, capsys):
        # config asks for order 1/2; the flag forces order 1, and the value
        # at x = 1/4 tells the two apart (6 * 1/4 vs 6 * sqrt(1/4))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 1, "lambda": "3", "alpha": "1/2",
                                   "x": [0.25]}))
        code, out, _ = run(capsys, "eval", "--config", str(cfg), "--alpha", "1")
        assert code == 0
        assert out.splitlines()[1] == "0.25,1.0,1.5"

    def test_config_value_used_when_flag_absent(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 1, "lambda": "3", "alpha": "1/2",
                                   "x": [0.25]}))
        code, out, _ = run(capsys, "eval", "--config", str(cfg))
        assert code == 0
        assert out.splitlines()[1] == "0.25,0.5,3.0"

    def test_plot_data_list_values(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 1, "alphas": ["1/2", "1"], "samples": 2}))
        code, out, _ = run(capsys, "plot-data", "--config", str(cfg))
        assert code == 0
        assert len(out.splitlines()) == 1 + 2 * 2

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _, err = run(capsys, "table", "--config", str(cfg))
        assert code == 2 and "bogus" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "table", "--config", "/nonexistent/cfg.json")
        assert code == 2 and "No such file" in err

    @pytest.mark.parametrize("command,values", [
        ("table", {"lambda": "x"}),
        ("eval", {"n": "abc", "x": [0.5]}),
        ("plot-data", {"signed_domain": "false"}),
        # a string for a list key used to be read character by character
        ("eval", {"x": "12", "n": 1, "lambda": "3", "alpha": "1"}),
        ("plot-data", {"alphas": "1/2"}),
        # int() used to truncate floats and take booleans
        ("table", {"n_max": 2.7}),
        ("eval", {"n": True, "x": [0.5]}),
        ("plot-data", {"samples": "3.5"}),
        # float() used to take booleans and strings, and nothing bounded tol
        ("audit", {"tol": True, "n_max": 1}),
        ("audit", {"tol": "nan", "n_max": 1}),
        ("audit", {"tol": float("nan"), "n_max": 1}),
        ("audit", {"tol": float("inf"), "n_max": 1}),
        ("audit", {"tol": 1, "n_max": 1}),
        ("audit", {"tol": 0.0, "n_max": 1}),
        # float() used to read JSON booleans as the points 1.0 and 0.0
        ("eval", {"x": [True], "n": 1, "lambda": "3", "alpha": "1"}),
    ])
    def test_uncoercible_value_exits_2(self, tmp_path, capsys, command, values):
        # the offending key comes first
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert code == 2 and out == ""
        assert f"config key '{next(iter(values))}'" in err

    def test_flag_takes_json_boolean(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"signed_domain": True, "samples": 3}))
        code, out, _ = run(capsys, "plot-data", "--config", str(cfg))
        assert code == 0
        assert out.splitlines()[1].startswith("-1.0,")

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _, err = run(capsys, "table", "--config", str(cfg))
        assert code == 2 and "JSON" in err


class TestConfigExitCodes:
    """Config values the command line cannot express still end in exit 2
    with an error line, print nothing and write no file."""

    @staticmethod
    def refused(tmp_path, monkeypatch, capsys, command, raw):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(raw)
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("error: ")
        assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]
        return err

    def test_non_utf8_file(self, tmp_path, monkeypatch, capsys):
        err = self.refused(tmp_path, monkeypatch, capsys, "table", b'{"n_max": 2}\xff')
        assert "config file is not valid JSON" in err

    @pytest.mark.parametrize("value", [None, 5, ["a.csv"]])
    def test_out_must_be_a_string(self, tmp_path, monkeypatch, capsys, value):
        raw = json.dumps({"out": value, "n": 1, "samples": 2}).encode()
        err = self.refused(tmp_path, monkeypatch, capsys, "plot-data", raw)
        assert "config key 'out': expected a string" in err

    def test_suite_must_be_a_string(self, tmp_path, monkeypatch, capsys):
        raw = json.dumps({"suite": 5}).encode()
        err = self.refused(tmp_path, monkeypatch, capsys, "verify", raw)
        assert "config key 'suite': expected a string" in err

    def test_eval_with_no_points(self, tmp_path, monkeypatch, capsys):
        raw = json.dumps({"n": 1, "x": []}).encode()
        err = self.refused(tmp_path, monkeypatch, capsys, "eval", raw)
        assert "eval requires --x with at least one point" in err

    def test_plot_data_with_no_orders(self, tmp_path, monkeypatch, capsys):
        raw = json.dumps({"alphas": [], "out": "grid.csv"}).encode()
        err = self.refused(tmp_path, monkeypatch, capsys, "plot-data", raw)
        assert "plot-data requires at least one --alpha" in err


class TestRepeatedCalls:
    """The parser is built once per process; one call's options must not
    leak into the next."""

    @staticmethod
    def alone(*argv):
        proc = subprocess.run([sys.executable, "-m", "congeg", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        return proc.stdout

    @pytest.mark.parametrize("first,second", [
        (("plot-data", "--samples", "3", "--alpha", "1/3", "--alpha", "2/3"),
         ("plot-data", "--samples", "3")),
        (("verify", "--suite", "ode"), ("verify",)),
    ])
    def test_back_to_back_calls_match_fresh_processes(self, capsys, first, second):
        outputs = []
        for argv in (first, second):
            code, out, err = run(capsys, *argv)
            assert code == 0 and err == ""
            outputs.append(out)
        assert outputs == [self.alone(*first), self.alone(*second)]


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "congeg", "table", "--n-max", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ["1", "6 x^a"]


class TestFigureScript:
    def test_writes_the_golden_csvs(self, tmp_path):
        proc = _run_script("make_figure_data.py", "--out-dir", str(tmp_path))
        assert proc.returncode == 0 and proc.stderr == ""
        golden = Path(__file__).resolve().parent / "golden"
        for n in range(1, 6):
            name = f"plot_data_n{n}.csv"
            assert (tmp_path / name).read_bytes() == (golden / name).read_bytes()


def _run_script(name, *args):
    """Run scripts/<name> in a fresh interpreter that imports this tree's src."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(root / "scripts" / name), *args],
                          capture_output=True, text=True, env=env)
