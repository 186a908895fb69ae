"""Acceptance gate: one test per criterion, one visible pass/fail line each.

Grids and tolerances are pinned here and must not drift:
  exact checks: zero residual in the rational coefficient algebra
  special-case evaluation: 1e-12 relative (coefficient-sum scale)
  orthogonality: 1e-8 of the diagonal geometric mean
  normalization quadrature vs derived value: 1e-6 relative
"""
import math
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from congeg.cli import main
from congeg.quadrature import normalization_audit, orthogonality_check
from congeg.verify import (STANDARD_GRID, check_constructor_agreement,
                           check_derivative_ladder, check_endpoint_values,
                           check_generating_function, check_ode_annihilation,
                           check_recurrences, check_special_cases)

GOLDEN = Path(__file__).parent / "golden"

TOL_SPECIAL = 1e-12
TOL_ORTH = 1e-8
TOL_NORM = 1e-6


@contextmanager
def criterion_line(capsys, number, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number}: FAIL - {label}", flush=True)
        raise
    with capsys.disabled():
        print(f"criterion {number}: PASS - {label}", flush=True)


def test_criterion_1_constructor_agreement(capsys):
    with criterion_line(capsys, 1,
                        "series/recurrence/Rodrigues agree exactly on the full grid"):
        assert STANDARD_GRID.n_max == 12
        assert STANDARD_GRID.lambdas == (Fraction(1, 2), Fraction(1),
                                         Fraction(5, 2), Fraction(3))
        rep = check_constructor_agreement(STANDARD_GRID)
        assert rep.status == "exact-pass", rep.to_text()


def test_criterion_2_ode_annihilation(capsys):
    with criterion_line(capsys, 2,
                        "differential operator annihilates every member exactly"):
        rep = check_ode_annihilation(STANDARD_GRID)
        assert rep.status == "exact-pass", rep.to_text()


def test_criterion_3_generating_function(capsys):
    with criterion_line(capsys, 3,
                        "independent binomial expansion reproduces all rows, n <= 10"):
        rep = check_generating_function()
        assert rep.grid == "n <= 10, weight in {1/2, 1, 3}"
        assert rep.status == "exact-pass", rep.to_text()


def test_criterion_4_identity_suite(capsys):
    with criterion_line(capsys, 4,
                        "derivative ladder, recurrences, endpoint values exact"):
        ladder = check_derivative_ladder(STANDARD_GRID)
        assert ladder.grid == "n <= 8, m <= 3, weight in {1/2, 1, 5/2, 3}; exact, order-free"
        recur = check_recurrences(STANDARD_GRID)
        assert recur.grid == "n <= 11 (pivots), weight in {1/2, 1, 5/2, 3}; exact, order-free"
        ends = check_endpoint_values(STANDARD_GRID)
        for rep in (ladder, recur, ends):
            assert rep.status == "exact-pass", rep.to_text()


def test_criterion_5_special_cases(capsys):
    with criterion_line(capsys, 5,
                        "Legendre/second-kind/first-kind reductions; order-1 "
                        "evaluation within 1e-12 relative"):
        rep = check_special_cases()
        assert rep.grid == "n <= 10, order 1"
        assert rep.passed, rep.to_text()
        assert rep.notes.endswith(", 200 points")
        assert rep.max_residual is not None and rep.max_residual <= TOL_SPECIAL


def test_criterion_6_orthogonality(capsys):
    with criterion_line(capsys, 6,
                        "off-diagonal inner products below 1e-8 of diagonal scale"):
        rep = orthogonality_check(n_max=8, lambdas=(Fraction(1), Fraction(3)),
                                  alphas=(Fraction(1, 2), Fraction(1)))
        assert rep.status == "numeric-pass", rep.to_text()
        assert rep.max_residual is not None and rep.max_residual <= TOL_ORTH


def test_criterion_7_normalization_oracle(capsys):
    with criterion_line(capsys, 7,
                        "diagonal quadrature matches classical value / order "
                        "within 1e-6; closed form flagged at (0, 1, 1)"):
        rep = normalization_audit(rel_tol=TOL_NORM)
        assert rep.status == "numeric-pass", rep.to_text()
        assert len(rep.table) == 7 * 2 * 3
        assert {(int(r.lam), str(r.alpha)) for r in rep.table} == {
            (1, "1/4"), (1, "1/2"), (1, "1"),
            (3, "1/4"), (3, "1/2"), (3, "1")}
        anchor = next(r for r in rep.table
                      if r.n == 0 and r.lam == 1 and float(r.alpha) == 1.0)
        assert abs(anchor.closed_form - math.sqrt(math.pi) / 2) < 1e-12
        assert abs(anchor.quadrature - math.pi / 2) < 1e-10
        assert "degree 0, weight 1, order 1" in rep.notes


def test_criterion_8_figure_reproduction(capsys):
    with criterion_line(capsys, 8,
                        "plot-data regenerates byte-identical golden CSVs; "
                        "x=1 values 6, 21, 56, 126, 252"):
        endpoints = {1: "6.0", 2: "21.0", 3: "56.0", 4: "126.0", 5: "252.0"}
        for n in range(1, 6):
            code = main(["plot-data", "--n", str(n)])
            out = capsys.readouterr().out
            assert code == 0
            golden = (GOLDEN / f"plot_data_n{n}.csv").read_text()
            assert out == golden, f"regenerated CSV for degree {n} drifted"
            end_values = {line.split(",")[2] for line in out.splitlines()
                          if line.startswith("1.0,")}
            assert end_values == {endpoints[n]}


def test_criterion_9_audit_completeness(capsys):
    with criterion_line(capsys, 9,
                        "recorded audits present on every verify run without "
                        "touching the exit status"):
        code = main(["verify", "--n-max", "4"])
        out = capsys.readouterr().out
        assert code == 0
        for identity in ("ultraspherical-ode-variant-operator",
                         "ultraspherical-series-form",
                         "ultraspherical-rodrigues-normalization",
                         "chebyshev-rodrigues-limit",
                         "chebyshev-derivative-ladder"):
            assert f"identity: {identity}" in out
        # a recorded failure is visible yet the run still exits 0
        assert "status: fail" in out
        assert "(recorded audit; does not gate the run)" in out
