"""Identity sweeps and recorded audits."""
import json
from fractions import Fraction

import numpy as np
import pytest

from congeg.alphapoly import AlphaPoly, ParameterError, pochhammer
from congeg.gegenbauer import (GegenbauerSpec, chebyshev_t, from_recurrence, from_rodrigues,
                               from_series, legendre)
from congeg.report import VerificationReport, reports_to_json, reports_to_text
import congeg.verify as verify
from congeg.verify import (STANDARD_GRID, ParamGrid, _sample_grid, audit_chebyshev_limit,
                           audit_ultraspherical,
                           check_constructor_agreement, check_derivative_ladder,
                           check_endpoint_values, check_generating_function,
                           check_ode_annihilation, check_recurrences,
                           check_special_cases, diff_relation_check,
                           generating_function_coeffs, ode_residual,
                           recurrence_checks, run_asserted_checks,
                           run_recorded_audits, ultraspherical_ode_residual)

HALF = Fraction(1, 2)
SMALL = ParamGrid(n_max=5)


class TestOdeResidual:
    @pytest.mark.parametrize("n,lam,alpha", [
        (2, Fraction(3), HALF),
        (5, HALF, Fraction(1)),
        (4, Fraction(5, 2), Fraction(3, 4)),
    ])
    def test_family_members_annihilated(self, n, lam, alpha):
        spec = GegenbauerSpec(n, lam, alpha)
        assert ode_residual(from_series(spec), spec).is_zero

    def test_non_member_witness(self):
        # x^a under the (n=2, weight=3) operator leaves 9 a^2 x^a
        spec = GegenbauerSpec(2, Fraction(3), HALF)
        residual = ode_residual(AlphaPoly.monomial(HALF, 1), spec)
        assert residual == AlphaPoly(HALF, (0, 9), grade=2)
        assert str(residual) == "(9*a^2) x^a"

    def test_order_mismatch_rejected(self):
        spec = GegenbauerSpec(2, Fraction(3), HALF)
        with pytest.raises(ParameterError):
            ode_residual(AlphaPoly.monomial(Fraction(3, 4), 1), spec)


class TestGeneratingFunction:
    def test_legendre_rows(self):
        rows = generating_function_coeffs(HALF, 3)
        assert rows[2] == [Fraction(-1, 2), Fraction(0), Fraction(3, 2)]
        assert rows[3] == [Fraction(0), Fraction(-3, 2), Fraction(0), Fraction(5, 2)]

    def test_rows_match_constructor(self):
        lam = Fraction(3)
        rows = generating_function_coeffs(lam, 6)
        for n, row in enumerate(rows):
            built = list(from_series(GegenbauerSpec(n, lam, Fraction(1))).rational_coeffs())
            built += [Fraction(0)] * (len(row) - len(built))
            assert row == built


class TestSingleIdentityChecks:
    def test_diff_relation(self):
        rep = diff_relation_check(GegenbauerSpec(5, Fraction(3), HALF), 2)
        assert rep.status == "exact-pass"

    def test_diff_relation_bad_m(self):
        with pytest.raises(ParameterError):
            diff_relation_check(GegenbauerSpec(3, Fraction(3), HALF), 4)

    def test_recurrences_single(self):
        rep = recurrence_checks(GegenbauerSpec(6, Fraction(5, 2), Fraction(3, 4)))
        assert rep.status == "exact-pass"


class TestSweeps:
    def test_all_asserted_pass(self):
        reports = run_asserted_checks(SMALL)
        assert len(reports) == 9
        assert all(r.passed for r in reports)
        assert all(r.asserted for r in reports)

    def test_identity_names(self):
        names = [r.identity for r in run_asserted_checks(SMALL)]
        assert names == ["constructor-agreement", "ode-annihilation",
                         "generating-function", "derivative-ladder",
                         "recurrences", "endpoint-value", "special-cases",
                         "orthogonality", "normalization-audit"]

    def test_injected_defect_is_caught(self, defective_member):
        rep = check_ode_annihilation(SMALL)
        assert rep.status == "fail"
        assert rep.witness is not None
        assert not rep.passed

    def test_special_cases_tolerance(self):
        rep = check_special_cases()
        assert rep.passed
        assert rep.max_residual is not None and rep.max_residual <= 1e-12

    def test_empty_lists_are_refused_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("work done over an empty list")

        monkeypatch.setattr(verify, "generating_function_coeffs", no_work)
        monkeypatch.setattr(verify, "classical_oracle", no_work)
        with pytest.raises(ParameterError, match="weights must not be empty"):
            check_generating_function(lambdas=())
        with pytest.raises(ParameterError, match="orders must not be empty"):
            check_special_cases(alphas=())

    def test_grid_description_in_reports(self):
        rep = check_constructor_agreement(SMALL)
        assert "n <= 5" in rep.grid
        assert "1/4" in rep.grid


# every order below gives the same exact values as the grid's first
ORDERS = (Fraction(1, 4), Fraction(1, 3), HALF, Fraction(3, 4), Fraction(7, 10), Fraction(1))


def _exact_values(lam, n, alpha):
    """What the exact sweeps compute for (weight, degree) at one order: the
    polynomials as (nums, den, grade), and the coefficient sum."""
    def member(k, weight=lam):
        return from_series(GegenbauerSpec(k, weight, alpha)) if k >= 0 else AlphaPoly.zero(alpha)

    spec = GegenbauerSpec(n, lam, alpha)
    c_n = member(n)
    c_next = member(n + 1).scale(n + 1)
    polys = {
        "series": c_n, "recurrence": from_recurrence(spec), "rodrigues": from_rodrigues(spec),
        "ode": ode_residual(c_n, spec),
        "ode of a perturbed member": ode_residual(c_n + AlphaPoly.constant(alpha, 1), spec),
        "three-term difference": c_next - (c_n.shift(1).scale(2 * (n + lam))
                                           - member(n - 1).scale(n + 2 * lam - 1)),
        "weight-raising difference": c_next - (member(n, lam + 1).shift(1)
                                               - member(n - 1, lam + 1)).scale(2 * lam),
        "legendre": legendre(n, alpha),
        "second-kind": member(n, 1),
        "first-kind": chebyshev_t(n, alpha),
    }
    lhs = c_n
    for m in range(1, min(3, n) + 1):
        lhs = lhs.d_alpha()
        polys[f"ladder lhs m={m}"] = lhs
        polys[f"ladder rhs m={m}"] = member(n - m, lam + m).scale(
            Fraction(2) ** m * pochhammer(lam, m), power=m)
    values = {name: (p.nums, p.den, p.grade) for name, p in polys.items()}
    values["coefficient sum"] = c_n.coefficient_sum()
    return values


def _order_mismatches():
    """(value, degree, weight, order) wherever an order of ORDERS gives
    another exact value than the first order of ParamGrid(n_max=8)."""
    grid = ParamGrid(n_max=8)
    mismatches = []
    for spec in grid.specs():
        first = _exact_values(spec.lam, spec.n, grid.alphas[0])
        for alpha in ORDERS:
            mismatches += [(name, spec.n, spec.lam, alpha)
                           for name, value in _exact_values(spec.lam, spec.n, alpha).items()
                           if value != first[name]]
    return mismatches


class TestOrderFreeSweeps:
    """The exact sweeps run once per (degree, weight): exact arithmetic
    never reads the order's value, so one order stands for all."""

    def test_exact_values_agree_at_every_order(self):
        assert _order_mismatches() == []

    def test_an_order_dependent_derivative_is_caught(self, monkeypatch):
        d_alpha = AlphaPoly.d_alpha
        monkeypatch.setattr(AlphaPoly, "d_alpha", lambda p: d_alpha(p).scale(p.alpha))
        assert "ode" in {name for name, *_ in _order_mismatches()}

    def test_ode_sweep_visits_each_degree_and_weight_once(self, monkeypatch):
        seen = []
        residual = verify.ode_residual
        monkeypatch.setattr(verify, "ode_residual",
                            lambda p, spec: seen.append((spec.n, spec.lam)) or residual(p, spec))
        assert check_ode_annihilation(STANDARD_GRID).passed
        assert len(seen) == len(set(seen)) == 4 * 13

    def test_reports_list_every_order_and_say_where_they_ran(self):
        # the generating function is checked at order 1 only, and says so
        # by listing no orders
        reports = {r.identity: r for r in run_asserted_checks(SMALL)}
        for identity in ("constructor-agreement", "ode-annihilation", "derivative-ladder",
                         "recurrences", "endpoint-value"):
            assert reports[identity].grid.endswith(
                "order in {1/4, 1/2, 3/4, 1}; exact, order-free: checked at order 1/4")
        special = reports["special-cases"]
        assert special.grid.endswith("order in {1/2, 1}")
        assert special.notes.startswith("exact, order-free: reductions checked at order 1/2;")


@pytest.fixture(scope="module")
def audits():
    return {r.identity: r for r in run_recorded_audits()}


class TestRecordedAudits:
    def test_all_marked_recorded(self, audits):
        assert len(audits) == 5
        assert all(not r.asserted for r in audits.values())

    def test_variant_operator_fails_as_recorded(self, audits):
        rep = audits["ultraspherical-ode-variant-operator"]
        assert rep.status == "fail"
        assert rep.witness is not None

    def test_series_form_exact(self, audits):
        assert audits["ultraspherical-series-form"].status == "exact-pass"

    def test_rodrigues_normalization_constant(self, audits):
        rep = audits["ultraspherical-rodrigues-normalization"]
        assert rep.status == "numeric-pass"
        assert "sqrt(pi)" in rep.notes

    def test_first_kind_limit_exact(self, audits):
        assert audits["chebyshev-rodrigues-limit"].status == "exact-pass"

    def test_first_kind_ladder_ratio(self, audits):
        rep = audits["chebyshev-derivative-ladder"]
        assert rep.status == "fail"
        assert "n/2" in rep.notes


class TestRecordedAuditsOncePerProcess:
    def test_each_call_returns_its_own_list(self):
        first = run_recorded_audits()
        second = run_recorded_audits()
        assert first == second and first is not second
        first.clear()
        assert len(second) == 5
        assert run_recorded_audits() == second

    def test_direct_audit_calls_follow_their_arguments(self):
        reports = audit_ultraspherical(n_max=2) + audit_chebyshev_limit(n_max=3)
        assert [r.grid.split(",")[0] for r in reports] == ["n <= 2"] * 3 + ["n <= 3"] * 2


class TestReportPlumbing:
    def test_to_text_marks_recorded(self):
        rep = VerificationReport("demo", "n <= 1", "fail", asserted=False)
        text = rep.to_text()
        assert "does not gate" in text

    def test_json_round_trip(self):
        reports = run_asserted_checks(ParamGrid(n_max=3))
        data = json.loads(reports_to_json(reports))
        assert [d["identity"] for d in data] == [r.identity for r in reports]
        assert all(set(d) == {"identity", "grid", "status", "max_residual",
                              "witness", "notes", "asserted"} for d in data)

    def test_text_concatenation(self):
        reports = [VerificationReport("a", "g", "exact-pass"),
                   VerificationReport("b", "g", "numeric-pass", max_residual=1e-15)]
        text = reports_to_text(reports)
        assert "identity: a" in text and "identity: b" in text

    def test_param_grid_size(self):
        grid = ParamGrid(n_max=2)
        assert len(list(grid.specs())) == 3 * 4

    @pytest.mark.parametrize("fields", [
        {"n_max": 3.5}, {"n_max": True}, {"n_max": "4"},
        {"lambdas": (HALF, 0)}, {"alphas": (Fraction(2),)}, {"alphas": ("x",)},
    ])
    def test_param_grid_rejects_bad_fields(self, fields):
        # n_max=3.5 once raised a bare TypeError inside the first sweep
        with pytest.raises(ParameterError):
            ParamGrid(**fields)

    @pytest.mark.parametrize("fields", [{"lambdas": ()}, {"alphas": []}])
    def test_param_grid_refuses_empty_lists(self, fields):
        # ParamGrid(n_max=4, lambdas=()) once passed all 9 suites over 0 triples
        with pytest.raises(ParameterError, match="must not be empty"):
            ParamGrid(n_max=4, **fields)

    def test_param_grid_negative_degree_is_refused_by_the_sweeps(self):
        grid = ParamGrid(n_max=-1)
        assert list(grid.specs()) == []
        with pytest.raises(ParameterError, match="must be >= 3"):
            run_asserted_checks(grid)

    def test_param_grid_stores_fractions(self):
        grid = ParamGrid(n_max=3, lambdas=["1/2", 3], alphas=[0.5, 1])
        assert grid.lambdas == (HALF, Fraction(3))
        assert grid.alphas == (HALF, Fraction(1))
        assert all(type(v) is Fraction for v in grid.lambdas + grid.alphas)


class TestUltrasphericalOperator:
    def test_full_operator_annihilates(self):
        from congeg.gegenbauer import UltrasphericalSpec, ultraspherical
        spec = UltrasphericalSpec(4, HALF, HALF)
        res = ultraspherical_ode_residual(ultraspherical(spec), spec,
                                          printed_form=False)
        assert res.is_zero

    def test_printed_form_fails_beyond_degree_one(self):
        from congeg.gegenbauer import UltrasphericalSpec, ultraspherical
        ok = UltrasphericalSpec(1, HALF, HALF)
        assert ultraspherical_ode_residual(ultraspherical(ok), ok,
                                           printed_form=True).is_zero
        bad = UltrasphericalSpec(3, HALF, HALF)
        assert not ultraspherical_ode_residual(ultraspherical(bad), bad,
                                               printed_form=True).is_zero

    @pytest.mark.parametrize("n,beta,alpha", [
        (3, HALF, HALF), (5, Fraction(0), Fraction(1)), (6, Fraction(3, 2), Fraction(1, 4))])
    def test_printed_form_term_by_term(self, n, beta, alpha):
        # D2 - a (2 beta + 2) x^a D + a^2 n (n + 2 beta + 1), written out
        from congeg.gegenbauer import UltrasphericalSpec, ultraspherical
        spec = UltrasphericalSpec(n, beta, alpha)
        p = ultraspherical(spec)
        d1 = p.d_alpha()
        printed = (d1.d_alpha() - d1.shift(1).scale(2 * (beta + 1), power=1)
                   + p.scale(n * (n + 2 * beta + 1), power=2))
        assert ultraspherical_ode_residual(p, spec, printed_form=True) == printed


class TestRunAssertedChecks:
    def test_one_suite(self):
        reports = run_asserted_checks(SMALL, suite="ode")
        assert [r.identity for r in reports] == ["ode-annihilation"]

    def test_unknown_suite(self):
        with pytest.raises(ParameterError, match="unknown suite 'bogus'"):
            run_asserted_checks(SMALL, suite="bogus")

    @pytest.mark.parametrize("n_max", [2, 0, -1])
    def test_grid_below_degree_3(self, n_max):
        # an empty grid once passed every suite after checking nothing
        with pytest.raises(ParameterError, match="must be >= 3"):
            run_asserted_checks(ParamGrid(n_max=n_max))


class TestPlainFloatReferences:
    """The sample grid gives numpy's floats, so plot-data and special-cases
    do not need numpy."""

    @pytest.mark.parametrize("lo", [0.0, -1.0])
    @pytest.mark.parametrize("samples", [2, 3, 7, 10, 33, 200, 201, 2001])
    def test_sample_grid_is_linspace(self, lo, samples):
        expected = [float(x).hex() for x in np.linspace(lo, 1.0, samples)]
        assert [x.hex() for x in _sample_grid(lo, samples)] == expected

    @pytest.mark.parametrize("samples", [1, 0, -3])
    def test_sample_grid_needs_two_points(self, samples):
        with pytest.raises(ParameterError, match="samples must be >= 2"):
            _sample_grid(0.0, samples)


class TestSpecialCasesAgainstRecurrence:
    """At order 1 special-cases compares `evaluate` (Horner) with the direct
    route's three-term recurrence, which rounds differently, so float error
    in either shows."""

    def test_default_run_measures_rounding(self):
        rep = check_special_cases()
        assert rep.status == "numeric-pass"
        assert 0.0 < rep.max_residual <= 1e-12

    def test_skewed_evaluation_fails(self, monkeypatch):
        evaluate = AlphaPoly.evaluate
        monkeypatch.setattr(AlphaPoly, "evaluate", lambda self, x: evaluate(self, x) + 1e-9)
        rep = check_special_cases()
        assert rep.status == "fail"
        assert rep.witness.startswith("order-1 evaluation n=")
        assert rep.max_residual > 1e-12
