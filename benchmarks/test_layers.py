"""Layer micro-benchmarks, one or more per layer:

- exact arithmetic: `ode_residual` of a family member at degrees 8, 32, 64,
  and `+`, `*`, `scale`, `shift` and `d_alpha` on degree-64 members;
- the three exact constructors at degrees 8, 32, 64, each round from cold
  memos, the series' memo body `_series_coeffs` from cold at 200 and 1000,
  and the validation of their parameters (`GegenbauerSpec` construction);
- first use over the exact sweeps' cases, from cold memos each round: the
  Rodrigues route `_rodrigues_coeffs` for every member to n_max 16 and 96,
  and the endpoint closed form `verify._endpoint_value` to n_max 24;
- the shifted-weight Rodrigues route `ultraspherical_rodrigues` at degree
  64, shifted weight 3/2, with its Rodrigues memo warm and cold;
- float evaluation: `evaluate` over 2001 points at degrees 8, 32, 64, one
  call per point, and `values` over the same points in one call, each on
  the evaluator the member chooses (float Horner at 8, the exact value at
  32 and 64); a member's own values `_member_values` at degrees 8 (float
  Horner) and 64 (the Clenshaw sum) over 1 and 8 points, the size of an
  `eval` request, and 255 points, point by point, and over 2001 points,
  column-wise; and a member's float form `_member_form`
  from cold at each degree and at 200 and 800, where the carried integers
  grow, and at 20000, which it refuses from its bound;
- quadrature: the exact inner product at degrees 8, 32, 64, and the direct
  x-route at degrees (7, 9) and (12, 12), order 1/4;
- the normalization audit `normalization_audit(32)` in process (198 rows),
  with the memos warm after the first round and from cold memos each round,
  and `audit_rows_to_csv` over its table, each row's line kept after the
  first round;
- verification: one `check_ode_annihilation` sweep at n_max 12, 24 and
  96 (each residual one integer pass over its member), the constructor
  and endpoint sweeps at n_max 12, the recurrence and ladder sweeps over
  that grid at their fixed bounds (pivots to 11; degree 8, length 3),
  and the special cases and the generating function at theirs
  (degree 10), with the memos warm after the first round as in a
  long-lived process, `orthogonality_check` at n_max 48 and 96 from cold
  memos and at n_max 32 with them warm, and the recorded audits computed
  afresh;
- the CLI process: end-to-end wall time of default `congeg verify`,
  `verify --n-max 24`, `verify --n-max 48`, `plot-data` (the default
  degree-4 curve, on float Horner), `plot-data --n 48 --lambda 3/2
  --samples 2001 --signed-domain --alpha 1/2 --alpha 1` (two curves on the
  Clenshaw sum), `audit`, the start-up-bound `eval --n 4 --x 0.5`
  and `table`, a cold `eval --n 64 --lambda 5/2 --alpha 1/2` at three
  points (the member's float form built once per process), and
  `eval --n 800 --lambda 3 --alpha 1 --x 0.5`, where building the
  member's float form dominates, and `audit --n-max 32`, each in a fresh
  interpreter, so nothing is reused between runs; `import congeg` and
  `import congeg.cli` in a fresh interpreter, from a copy of the package
  with no bytecode, the import alone in `extra_info`; and `audit --n-max 32`
  through `congeg.cli.main` in process, its memos warm after the first
  round as in a long-lived process.

This directory is outside the test suite's `testpaths`; run it explicitly
from the repository root:

    PYTHONPATH=src python -m pytest benchmarks -q --benchmark-json=layers.json

The file times whichever `congeg` is importable.  It cannot compare two
trees by pointing PYTHONPATH at each in turn: on a 2-core shared host the
tree that runs second reads faster (exact sweeps whose code did not change
read x0.58-x1.00 one way round and x1.44-x1.84 the other).  Compare two
commits through alternating runs in fresh interpreters instead, with
`scripts/bench_pairs.py --workload NAME` or `--cli "ARGS"`.
"""
import contextlib
import io
import os
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import congeg
import congeg.cli
import congeg.gegenbauer as gegenbauer
import congeg.quadrature as quadrature
import congeg.verify as verify
from congeg.alphapoly import AccuracyError
from congeg.gegenbauer import (GegenbauerSpec, UltrasphericalSpec, from_recurrence,
                               from_rodrigues, from_series, ultraspherical_rodrigues)
from congeg.quadrature import (audit_rows_to_csv, conformable_inner_product,
                               conformable_inner_product_direct, normalization_audit,
                               orthogonality_check)
from congeg.verify import (audit_chebyshev_limit, audit_ultraspherical,
                           check_constructor_agreement, check_derivative_ladder,
                           check_endpoint_values, check_generating_function,
                           check_ode_annihilation,
                           check_recurrences, check_special_cases, ode_residual)

DEGREES = (8, 32, 64)
LAM = Fraction(5, 2)
ALPHA = Fraction(1, 2)


def _clear_memos():
    """Empty every memo of the constructors, the inner products and the
    verification oracles, so the next call builds from scratch.  Found by
    attribute, so a tree with other memos, or none, is timed the same way."""
    for module in (gegenbauer, quadrature, verify):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


@pytest.mark.parametrize("n", DEGREES)
def test_ode_residual(benchmark, n):
    spec = GegenbauerSpec(n, LAM)
    assert benchmark(ode_residual, from_series(spec), spec).is_zero


@pytest.mark.parametrize("n", DEGREES)
@pytest.mark.parametrize("route", [from_series, from_recurrence, from_rodrigues],
                         ids=lambda route: route.__name__)
def test_constructor(benchmark, route, n):
    # a memo hit would time a lookup, not the route
    spec = GegenbauerSpec(n, LAM)
    poly = benchmark.pedantic(route, args=(spec,), setup=_clear_memos,
                              rounds=100, iterations=1)
    assert poly == from_series(spec)


@pytest.mark.parametrize("n", [200, 1000])
def test_series_cold(benchmark, n):
    # the memo's body, so every round builds the series from cold
    poly = benchmark(gegenbauer._series_coeffs.__wrapped__, n, *LAM.as_integer_ratio())
    assert poly.degree == n


@pytest.mark.parametrize("n_max", [16, 96])
def test_rodrigues_sweep(benchmark, n_max):
    # a first use: every member of the grid, each round from cold memos
    cases = list(verify._sweep_cases(n_max))
    members = benchmark.pedantic(lambda: [gegenbauer._rodrigues_coeffs(*c) for c in cases],
                                 setup=_clear_memos, rounds=10, iterations=1)
    assert all(member.grade == 0 for member in members)


def test_endpoint_sweep(benchmark):
    cases = list(verify._sweep_cases(24))
    values = benchmark.pedantic(lambda: [verify._endpoint_value(*c) for c in cases],
                                setup=_clear_memos, rounds=20, iterations=1)
    assert all(value > 0 for value in values)


@pytest.mark.parametrize("memo", ["warm", "cold"])
def test_ultraspherical_rodrigues(benchmark, memo):
    spec = UltrasphericalSpec(64, Fraction(3, 2))
    setup = _clear_memos if memo == "cold" else None
    coeffs = benchmark.pedantic(ultraspherical_rodrigues, args=(spec,), setup=setup,
                                rounds=100, iterations=1)
    assert len(coeffs) == 65 and coeffs[64] > 0


def test_spec(benchmark):
    # a public constructor's or an audit's call builds one, validating both
    # fields; the exact sweeps build their cases from integers and build none
    assert benchmark(GegenbauerSpec, 12, LAM).lam == LAM


# degree-64 members at two weights, so sums run over the lcm of unequal
# denominators
POLY_OPS = {
    "add": lambda p, q: p + q,
    "mul": lambda p, q: p * q,
    "scale": lambda p, q: p.scale(Fraction(7, 3)),
    "shift": lambda p, q: p.shift(1),
    "d_alpha": lambda p, q: p.d_alpha(),
}


@pytest.mark.parametrize("op", POLY_OPS)
def test_poly_op(benchmark, op):
    p = from_series(GegenbauerSpec(64, LAM))
    q = from_series(GegenbauerSpec(64, Fraction(2, 7)))
    assert not benchmark(POLY_OPS[op], p, q).is_zero


@pytest.mark.parametrize("n", DEGREES)
def test_evaluate_2001_points(benchmark, n):
    poly = from_series(GegenbauerSpec(n, LAM))
    xs = [i / 2000 for i in range(2001)]
    a = float(ALPHA)
    values = benchmark(lambda: [poly.evaluate(x, a) for x in xs])
    assert len(values) == len(xs)


@pytest.mark.parametrize("n", DEGREES)
def test_values_2001_points(benchmark, n):
    poly = from_series(GegenbauerSpec(n, LAM))
    xs = [i / 1000 - 1 for i in range(2001)]
    values = benchmark(poly.values, xs, float(ALPHA))
    assert len(values) == len(xs)


@pytest.mark.parametrize("points", (1, 8, 255, 2001))
@pytest.mark.parametrize("n", (8, 64))
def test_member_values(benchmark, n, points):
    # the member's float form is built once, before the rounds
    p, q = LAM.as_integer_ratio()
    xs = [i / max(points - 1, 1) for i in range(points)]
    gegenbauer._member_values(n, p, q, xs, float(ALPHA))
    values = benchmark(gegenbauer._member_values, n, p, q, xs, float(ALPHA))
    assert len(values) == points


@pytest.mark.parametrize("n", DEGREES + (200, 800, 20000))
def test_member_form(benchmark, n):
    # the memo's body, so every round builds the form from cold; a refused
    # degree times the path to its AccuracyError
    p, q = LAM.as_integer_ratio()

    def build():
        try:
            return gegenbauer._member_form.__wrapped__(n, p, q)
        except AccuracyError:
            return None

    form = benchmark(build)
    if n <= 800:
        odd, _, bound, scale = form
        assert odd is None or bound < 1e-10 * scale


@pytest.mark.parametrize("n", DEGREES)
def test_inner_product(benchmark, n):
    # steady state of a sweep: the per-degree caches are filled by the first round
    result = benchmark(conformable_inner_product, n, n, LAM, ALPHA)
    assert result.value > 0 and result.nodes_used == 0


@pytest.mark.parametrize("m,n", [(7, 9), (12, 12)])
def test_direct_inner_product(benchmark, m, n):
    order = Fraction(1, 4)
    result = benchmark(conformable_inner_product_direct, m, n, LAM, order)
    exact = conformable_inner_product(m, n, LAM, order).value
    scale = conformable_inner_product(n, n, LAM, order).value
    assert abs(result.value - exact) <= 1e-7 * scale


def test_audit_sweep(benchmark):
    assert benchmark(normalization_audit, 32).passed


def test_audit_sweep_cold(benchmark):
    report = benchmark.pedantic(normalization_audit, args=(32,),
                                setup=_clear_memos, rounds=5, iterations=1)
    assert report.passed


def test_audit_csv(benchmark):
    table = normalization_audit(32).table
    assert benchmark(audit_rows_to_csv, table).count("\n") == 1 + len(table)


@pytest.mark.parametrize("n_max", [12, 24, 96])
def test_ode_sweep(benchmark, n_max):
    assert benchmark(check_ode_annihilation, n_max).passed


EXACT_SWEEPS = {
    "constructors": lambda: check_constructor_agreement(12),
    "recurrences": lambda: check_recurrences(12),
    "ladder": lambda: check_derivative_ladder(12),
    "endpoints": lambda: check_endpoint_values(12),
    "special-cases": lambda: check_special_cases(),
    "generating-function": lambda: check_generating_function(),
}


@pytest.mark.parametrize("suite", EXACT_SWEEPS)
def test_exact_sweep(benchmark, suite):
    assert benchmark(EXACT_SWEEPS[suite]).passed


@pytest.mark.parametrize("n_max", [48, 96])
def test_orthogonality_cold(benchmark, n_max):
    report = benchmark.pedantic(orthogonality_check, kwargs={"n_max": n_max},
                                setup=_clear_memos, rounds=5, iterations=1)
    assert report.passed


def test_orthogonality_warm(benchmark):
    # the first round fills the memos; the rest time a sweep's per-pair cost
    assert benchmark(orthogonality_check, n_max=32).passed


def test_recorded_audits(benchmark):
    reports = benchmark(lambda: audit_ultraspherical() + audit_chebyshev_limit())
    assert len(reports) == 5


@pytest.mark.parametrize("argv", [("verify",), ("verify", "--n-max", "24"),
                                  ("verify", "--n-max", "48"),
                                  ("plot-data",),
                                  ("plot-data", "--n", "48", "--lambda", "3/2",
                                   "--samples", "2001", "--signed-domain",
                                   "--alpha", "1/2", "--alpha", "1"),
                                  ("audit",),
                                  ("eval", "--n", "4", "--x", "0.5"), ("table",),
                                  ("eval", "--n", "64", "--lambda", "5/2", "--alpha", "1/2",
                                   "--x", "0.1", "0.5", "0.9"),
                                  ("eval", "--n", "800", "--lambda", "3", "--alpha", "1",
                                   "--x", "0.5"),
                                  ("audit", "--n-max", "32")],
                         ids=" ".join)
def test_cli(benchmark, argv):
    env = {**os.environ, "PYTHONPATH": str(Path(congeg.__file__).resolve().parents[1])}
    cmd = [sys.executable, "-m", "congeg", *argv]
    proc = benchmark.pedantic(subprocess.run, args=(cmd,),
                              kwargs={"env": env, "capture_output": True},
                              rounds=5, iterations=1)
    assert proc.returncode == 0


@pytest.mark.parametrize("module", ["congeg", "congeg.cli", "congeg.verify"])
def test_fresh_import(benchmark, tmp_path, module):
    # a copy of the package with no bytecode, which nothing writes: each round
    # compiles the package's modules, as in a fresh checkout, and reads the
    # standard library's bytecode as usual
    shutil.copytree(Path(congeg.__file__).parent, tmp_path / "congeg",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {**os.environ, "PYTHONPATH": str(tmp_path), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-c", f"import time; t0 = time.perf_counter(); import {module}; "
                                 "print(time.perf_counter() - t0)"]
    seconds = []

    def spawn():
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
        seconds.append(float(proc.stdout))

    benchmark.pedantic(spawn, rounds=9, iterations=1)
    # a round's time includes the interpreter's start; this is the import alone
    benchmark.extra_info["import_s_median"] = statistics.median(seconds)
    assert not list(tmp_path.rglob("__pycache__"))


def test_cli_audit_warm(benchmark):
    # the first round fills the memos, as the first request of a long-lived process
    def audit():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = congeg.cli.main(["audit", "--n-max", "32"])
        return code, out.getvalue()

    code, text = benchmark(audit)
    assert code == 0 and text.count("\n") == 1 + 6 * 33
