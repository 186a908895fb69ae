"""Identity sweeps and recorded audits."""
import json
from fractions import Fraction

import pytest

from congeg.alphapoly import AlphaPoly, ParameterError
from congeg.gegenbauer import GegenbauerSpec, from_series
from congeg.verify import (ParamGrid, VerificationReport, check_constructor_agreement,
                           check_derivative_ladder, check_endpoint_values,
                           check_generating_function, check_ode_annihilation,
                           check_recurrences, check_special_cases,
                           diff_relation_check, generating_function_coeffs,
                           ode_residual, recurrence_checks, reports_to_json,
                           reports_to_text, run_asserted_checks,
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
        assert len(reports) == 7
        assert all(r.passed for r in reports)
        assert all(r.asserted for r in reports)

    def test_identity_names(self):
        names = [r.identity for r in run_asserted_checks(SMALL)]
        assert names == ["constructor-agreement", "ode-annihilation",
                         "generating-function", "derivative-ladder",
                         "recurrences", "endpoint-value", "special-cases"]

    def test_injected_defect_is_caught(self):
        rep = check_ode_annihilation(SMALL, inject_defect=True)
        assert rep.status == "fail"
        assert rep.witness is not None
        assert not rep.passed

    def test_special_cases_tolerance(self):
        rep = check_special_cases()
        assert rep.passed
        assert rep.max_residual is not None and rep.max_residual <= 1e-12

    def test_grid_description_in_reports(self):
        rep = check_constructor_agreement(SMALL)
        assert "n <= 5" in rep.grid
        assert "1/4" in rep.grid


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
        assert len(list(grid.specs())) == 3 * 4 * 4


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
