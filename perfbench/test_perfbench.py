"""Self-tests of the benchmark itself (not of the program):

    python3 -m pytest -q perfbench
"""
import contextlib
import io
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import pytest  # noqa: E402

import congeg.cli  # noqa: E402
import congeg.gegenbauer  # noqa: E402
import congeg.verify  # noqa: E402
from checks import Checker  # noqa: E402
from congeg.cli import main  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, execute, make_requests  # noqa: E402
from run import run_pass  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fixed_seed_gives_identical_request_lists(workload):
    first = json.dumps(make_requests(workload, 7, 30))
    assert json.dumps(make_requests(workload, 7, 30)) == first
    assert json.dumps(make_requests(workload, 8, 30)) != first


def test_checker_fails_known_wrong_high_degree_eval():
    req = {"op": "eval", "n": 60, "lam": "3", "alpha": "1", "x": ["0.99"]}
    out = execute(req)
    assert out.rc == 0 and out.stdout.splitlines()[1].startswith("0.99,1.0,1653465008.03")
    verdict = Checker().check(req, out)
    assert verdict.failure == "inaccurate"
    assert verdict.max_err > 1e-10


@pytest.mark.parametrize("value", ["9.0", "nan", "-8.9999"])
def test_checker_calls_values_past_rounding_bound_wrong(value):
    # C_4^3(0.5) = -9 exactly; Horner's rounding cannot flip its sign, lose
    # it to NaN or move it by 1e-4
    req = {"op": "eval", "n": 4, "lam": "3", "alpha": "1", "x": ["0.5"]}
    out = execute(req)
    assert out.stdout.splitlines()[1] == "0.5,1.0,-9.0"
    out.stdout = f"x,alpha,value\n0.5,1.0,{value}\n"
    assert Checker().check(req, out).failure == "wrong"


def test_checker_passes_default_plot_data():
    # the defaults of `congeg plot-data --n 4`, spelled out for the checker
    req = {"op": "plot-data", "n": 4, "lam": "3",
           "alphas": ["1/2", "7/10", "9/10", "1"], "samples": 201, "signed": False}
    out = execute(req)
    default = io.StringIO()
    with contextlib.redirect_stdout(default):
        assert main(["plot-data", "--n", "4"]) == 0
    assert out.stdout == default.getvalue()
    verdict = Checker().check(req, out)
    assert verdict.failure is None
    assert verdict.max_err < 1e-14


def test_traced_self_times_sum_to_traced_wall_time():
    reqs = [{"op": "verify", "suite": "endpoints", "n_max": 3, "json": True},
            {"op": "eval", "n": 12, "lam": "5/2", "alpha": "1/3", "x": ["-0.4", "0.9"]},
            {"op": "orthogonality", "n_max": 3, "lam": "1", "alpha": "1/2"}]
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(reqs, Checker(), tracer)
    finally:
        tracer.uninstall()
    assert traced.failed == 0
    assert tracer.wall_s() == pytest.approx(traced.raw_wall_s, rel=1e-12)
    assert tracer.self_total_s() == pytest.approx(tracer.wall_s(), rel=1e-9)
    totals = tracer.layer_totals()
    assert totals["cli.main"]["calls"] == 2
    assert totals["gegenbauer.recurrence"]["calls"] == 1
    assert totals["alphapoly.eval"]["calls"] >= 2
    assert totals["quadrature.product"]["calls"] == 10  # 4 diagonal + 6 off-diagonal
    # only polynomial products are timed as such, not scalings
    poly = congeg.gegenbauer.from_series(congeg.gegenbauer.GegenbauerSpec(3, 1, 1))
    before = len(tracer.name)
    tracer.install()
    try:
        poly * 2, 2 * poly, poly.scale(2)
        assert len(tracer.name) == before
        poly * poly
        assert len(tracer.name) == before + 1
    finally:
        tracer.uninstall()
    # uninstall restores the originals
    assert congeg.cli.run_recorded_audits is congeg.verify.run_recorded_audits
    assert not hasattr(congeg.cli.main, "__wrapped__")
