"""CLI subcommands, exit codes, CSV determinism, config merging."""
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congeg import cli
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
        # --alpha is no option of it and the parser refuses it
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
                                        ["--x", "-inf"], ["--x=-inf"], ["--x", "0.5", "-nan"],
                                        ["--x", "-infinity"]])
    def test_non_finite_point_exits_2(self, capsys, points):
        # these once printed nan with exit 0; a token float() reads, -inf
        # and -nan included, is a point, and the range check refuses it
        code, out, err = run(capsys, "eval", "--n", "2", "--lambda", "3", "--alpha", "1",
                             *points)
        assert code == 2 and out == ""
        assert err.startswith("error: eval points must lie in [-1, 1], got ")

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

    def test_flag_given_a_value_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["plot-data", "--signed-domain=1"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("congeg plot-data: error: argument --signed-domain: "
                                "takes no value, got '1'\n")

    def test_bad_samples_exits_2(self, capsys):
        code, _, err = run(capsys, "plot-data", "--samples", "1")
        assert code == 2 and err == "error: --samples must be >= 2, got 1\n"

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

    def test_refusal_writes_nothing(self, tmp_path, capsys):
        target = tmp_path / "curves.csv"
        code, out, err = run(capsys, "plot-data", "--n", "218", "--lambda", "1000",
                             "--samples", "3", "--alpha", "1/2", "--alpha", "1",
                             "--out", str(target))
        assert code == 3 and out == ""
        assert err == "accuracy failure: a float value of this degree-218 polynomial is not finite\n"
        assert not target.exists()

    def test_rows_are_written_one_curve_at_a_time(self, tmp_path, capsys):
        # the rows held at once are one curve's, so four curves take about
        # the memory of one: each curve's values, plus one curve's text
        import tracemalloc

        def peak(*alphas):
            tracemalloc.start()
            try:
                assert main(["plot-data", "--n", "8", "--samples", "100000", *alphas,
                             "--out", str(tmp_path / "curves.csv")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run(capsys, "plot-data", "--samples", "300")  # numpy is imported untraced
        one = peak("--alpha", "1/2")
        four = peak()
        assert capsys.readouterr().out.endswith("wrote 400000 rows to "
                                                f"{tmp_path / 'curves.csv'}\n")
        assert four <= 1.5 * one


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
    except SystemExit as exc:  # a usage error: the flag's converter refuses ""
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

    def test_json_array_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([{"n_max": 2}]))
        code, out, err = run(capsys, "table", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == "error: config file must hold a JSON object\n"

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


def _case(argv, outcome, expected=None):
    return pytest.param(argv, outcome, expected, id=" ".join(argv) or "(none)")


# Each argv with the outcome argparse's top-level parse gave it, which the
# option table keeps: "error" is a usage error (exit 2, nothing on stdout,
# a `congeg ...: error:` line naming each expected text), "help" lists
# every option of the command (or of all of them) with its help string, and
# "same" prints exactly what the expected argv, spelled out, prints.  A
# negative rational p/q is a value, which argparse took for an option:
# "domain" is the check's own error (exit 2, nothing on stdout, one
# `error:` line naming each expected text).
ARGV_CASES = [
    _case([], "error", ["command", "table, eval, plot-data, verify, audit"]),
    _case(["-h"], "help"), _case(["--help"], "help"),
    _case(["eval", "-h"], "help"), _case(["table", "--help"], "help"),
    _case(["bogus"], "error", ["'bogus'"]), _case(["--"], "error", ["'--'"]),
    _case(["--", "eval"], "error", ["'--'"]),
    _case(["eval", "--n", "4", "--x", "0.5", "--bogus"], "error", ["--bogus"]),
    _case(["eval", "--n", "4", "--x", "-0.5", "zz"], "error", ["--x", "'zz'"]),
    _case(["table", "--alpha", "1/2"], "error", ["--alpha 1/2"]),
    _case(["plot-data", "--s", "3"], "error", ["--s", "--samples", "--signed-domain"]),
    _case(["table", "extra"], "error", ["extra"]),
    _case(["table", "--n-max", "3", "--", "x"], "error", ["-- x"]),
    _case(["eval", "--lam", "5/2", "--n", "3", "--x", "0.1"], "same",
          ["eval", "--lambda", "5/2", "--n", "3", "--x", "0.1"]),
    _case(["plot-data", "--sam", "7", "--n", "3"], "same",
          ["plot-data", "--samples", "7", "--n", "3"]),
    _case(["verify", "--j", "--n-max", "3"], "same", ["verify", "--json", "--n-max", "3"]),
    _case(["verify", "--n-max=3", "--suite=ode"], "same",
          ["verify", "--n-max", "3", "--suite", "ode"]),
    _case(["eval", "--n", "3", "--x", "0.5", "--n", "2"], "same",
          ["eval", "--n", "2", "--x", "0.5"]),
    _case(["plot-data", "--samples", "2", "--alpha", "1", "--alpha=1/3"], "same",
          ["plot-data", "--samples", "2", "--alpha", "1/3", "--alpha", "1"]),
    _case(["eval", "--n", "x"], "error", ["--n", "'x'"]),
    _case(["eval", "--n", "5", "--x"], "error", ["--x"]),
    _case(["verify", "--suite", "nope"], "error", ["--suite", "'nope'", "orthogonality"]),
    _case(["plot-data", "--out", ""], "error", ["--out", "empty path"]),
    _case(["audit", "--out="], "error", ["--out", "empty path"]),
    _case(["eval", "--n", "2", "--lambda", "-1/2", "--x", "0.5"], "domain",
          ["weight parameter must be positive, got -1/2"]),
    _case(["plot-data", "--alpha", "-1/2"], "domain", ["order must lie in (0, 1], got -1/2"]),
    _case(["eval", "--n", "2", "--x", "-1/2"], "error", ["--x", "'-1/2'"]),
]

HELP_FLAGS = {
    "table": ["--n-max", "--lambda", "--config", "--help"],
    "eval": ["--n", "--lambda", "--alpha", "--x", "--config", "--help"],
    "plot-data": ["--n", "--lambda", "--alpha", "--samples", "--signed-domain", "--out",
                  "--config", "--help"],
    "verify": ["--n-max", "--suite", "--json", "--config", "--help"],
    "audit": ["--n-max", "--tol", "--out", "--config", "--help"],
}


class TestArgvScan:
    """Usage errors, help, abbreviations and `--opt=value` as the scan of
    the option table gives them."""

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("argv,outcome,expected", ARGV_CASES)
    def test_same_outcome_as_the_top_level_parse(self, capsys, argv, outcome, expected):
        code, out, err = self.outcome(capsys, argv)
        if outcome == "error":
            assert (code, out) == (2, "")
            line, = err.splitlines()
            prog = f"congeg {argv[0]}" if argv[:1] and argv[0] in HELP_FLAGS else "congeg"
            assert line.startswith(f"{prog}: error: ")
            assert all(text in line for text in expected)
        elif outcome == "domain":
            assert (code, out) == (2, "")
            line, = err.splitlines()
            assert line.startswith("error: ")
            assert all(text in line for text in expected)
        elif outcome == "help":
            assert (code, err) == (0, "")
            lines = out.splitlines()
            for command in [argv[0]] if argv[0] in HELP_FLAGS else HELP_FLAGS:
                _, about, options = cli._COMMANDS[command]
                assert [opt[0] for opt in options] + ["--help"] == HELP_FLAGS[command]
                assert f"{command}: {about}" in lines
                for flag, *_, text in (*options, cli._HELP):
                    assert any(flag in line and line.endswith(text) for line in lines)
        else:
            assert (code, err) == (0, "")
            assert (code, out, err) == self.outcome(capsys, expected)

    def test_exponent_form_points_are_values(self, capsys):
        # the CSV prints small points in exponent form; argparse refused
        # `--x -1e-05` as an option it did not know (exit 2)
        points = ["-0.00001", "-0.000000025", "0.5", "-1", "0.0001"]
        code, out, _ = run(capsys, "eval", "--n", "3", "--alpha", "1", "--x", *points)
        assert code == 0
        xs = [row.split(",")[0] for row in out.splitlines()[1:]]
        assert xs == ["-1e-05", "-2.5e-08", "0.5", "-1.0", "0.0001"]
        assert run(capsys, "eval", "--n", "3", "--alpha", "1", "--x", *xs) == (0, out, "")

    def test_repeated_x_adds_points(self, capsys):
        # the last --x once replaced the others, and eval printed its row alone
        code, out, _ = run(capsys, "eval", "--n", "2", "--x", "0.1", "--x", "0.2", "-0.3")
        assert code == 0
        assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["0.1", "0.2", "-0.3"]
        assert run(capsys, "eval", "--n", "2", "--x", "0.1", "0.2", "-0.3") == (0, out, "")


# values for every option, as (flag tokens, config value) pairs
_RATIONAL_TEXT = st.one_of(st.fractions(min_value=0, max_denominator=10 ** 6).map(str),
                           st.floats(allow_nan=False, allow_infinity=False).map(repr))
_OPTION_VALUES = {
    "int": st.integers(-10 ** 6, 10 ** 6).map(lambda v: ([str(v)], v)),
    "rational": _RATIONAL_TEXT.map(lambda t: ([t], t)),
    "points": st.lists(st.floats(allow_nan=False), min_size=1, max_size=5).map(
        lambda xs: ([repr(x) for x in xs], xs)),
    "orders": st.lists(_RATIONAL_TEXT, min_size=1, max_size=4),
    "flag": st.just(([], True)),
    "suite": st.sampled_from(cli._SUITES).map(lambda t: ([t], t)),
    "path": st.text("abc._/1", min_size=1, max_size=12).map(lambda t: ([t], t)),
    "tol": st.floats(0, 1, exclude_min=True, exclude_max=True).map(lambda v: ([repr(v)], v)),
}
_OPTION_KINDS = {"n": "int", "n_max": "int", "samples": "int", "lam": "rational",
                 "alpha": "rational", "x": "points", "alphas": "orders",
                 "signed_domain": "flag", "json": "flag", "suite": "suite", "out": "path",
                 "tol": "tol"}


def _parsed(argv):
    args = cli._parse(argv)
    cli._apply_config(args)
    return {k: v for k, v in vars(args).items() if k != "config"}


@pytest.mark.parametrize("command,option", [
    (command, option) for command, (_, _, options) in cli._COMMANDS.items()
    for option in options if option[1] != "config"],
    ids=lambda v: v if isinstance(v, str) else v[0])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_flag_and_config_key_parse_alike(command, option, data):
    """Every option of every command, given as a flag (or `--flag=value`)
    or as its config key, parses to the same value."""
    flag, dest = option[:2]
    value = data.draw(_OPTION_VALUES[_OPTION_KINDS[dest]])
    if dest == "alphas":  # one --alpha per order
        tokens = [token for text in value for token in ("--alpha", text)]
    else:
        texts, value = value
        tokens = ([f"{flag}={texts[0]}"] if len(texts) == 1 and data.draw(st.booleans())
                  else [flag, *texts])
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "cfg.json"
        config.write_text(json.dumps({dest: value}))
        from_config = _parsed([command, "--config", str(config)])
    assert _parsed([command, *tokens]) == from_config


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "congeg", "table", "--n-max", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ["1", "6 x^a"]


class TestFigureScript:
    def test_writes_the_golden_csvs(self, tmp_path, capsys):
        # the figure CSVs are five `plot-data --out` calls, byte for byte
        golden = Path(__file__).resolve().parent / "golden"
        for n in range(1, 6):
            name = f"plot_data_n{n}.csv"
            code, out, err = run(capsys, "plot-data", "--n", str(n), "--out",
                                 str(tmp_path / name))
            assert code == 0 and err == ""
            assert out == f"wrote 804 rows to {tmp_path / name}\n"
            assert (tmp_path / name).read_bytes() == (golden / name).read_bytes()
