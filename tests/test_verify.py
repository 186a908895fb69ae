"""Identity sweeps and recorded audits."""
import inspect
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from congeg.alphapoly import AlphaPoly, ParameterError, _sample_grid, pochhammer
from congeg.cli import main
from congeg.gegenbauer import GegenbauerSpec, from_series
from congeg.report import VerificationReport, reports_to_json, reports_to_text
import congeg.gegenbauer as gegenbauer
import congeg.quadrature as quadrature
import congeg.verify as verify
from congeg.quadrature import normalization_audit
from congeg.verify import (audit_chebyshev_limit, audit_ultraspherical,
                           check_constructor_agreement, check_derivative_ladder,
                           check_endpoint_values, check_ode_annihilation, check_recurrences,
                           check_special_cases, generating_function_coeffs,
                           ode_residual, run_asserted_checks,
                           run_recorded_audits, ultraspherical_ode_residual)

HALF = Fraction(1, 2)
SMALL = 5


class TestOdeResidual:
    @pytest.mark.parametrize("n,lam,alpha", [
        (2, Fraction(3), HALF),
        (5, HALF, Fraction(1)),
        (4, Fraction(5, 2), Fraction(3, 4)),
    ])
    def test_family_members_annihilated(self, n, lam, alpha):
        spec = GegenbauerSpec(n, lam)
        residual = ode_residual(from_series(spec), spec)
        assert residual.is_zero
        assert residual.values((-0.5, 0.3, 1.0), alpha) == [0.0, 0.0, 0.0]

    def test_non_member_witness(self):
        # x^a under the (n=2, weight=3) operator leaves 9 a^2 x^a
        spec = GegenbauerSpec(2, Fraction(3))
        residual = ode_residual(AlphaPoly((0, 1)), spec)
        assert residual == AlphaPoly((0, 9), grade=2)
        assert str(residual) == "(9*a^2) x^a"

    @pytest.mark.parametrize("poly", [[1, 2], (1, 2), None], ids=repr)
    def test_refuses_what_is_not_an_alphapoly(self, poly):
        with pytest.raises(ParameterError, match="^expected an AlphaPoly$"):
            ode_residual(poly, GegenbauerSpec(2, Fraction(3)))

    def test_member_annihilated_whatever_the_spec_order(self):
        # neither the member nor the operator's spec has an order, so the one
        # exact residual is zero at every order it is evaluated at
        spec = GegenbauerSpec(6, Fraction(5, 2))
        residual = ode_residual(from_series(spec), spec)
        assert residual.is_zero
        for alpha in (Fraction(1, 4), Fraction(1, 3), HALF, 0.7, 1):
            assert residual.values((-0.5, 0.3, 1.0), alpha) == [0.0, 0.0, 0.0]


# the weights of the one-pass checks: the standard grid's and one with q > 2
ONE_PASS_WEIGHTS = (HALF, Fraction(1), Fraction(5, 2), Fraction(3), Fraction(2, 7))


def _ode_operator(poly, n, p, q):
    """The weighted operator term by term in AlphaPoly calculus, at lam = p/q
    and scaled by q: the oracle of `verify._ode_residual`'s one pass."""
    d1 = poly.d_alpha()
    d2 = d1.d_alpha()
    return (d2 - d2.shift(2) - d1.shift(1)._times(2 * p + q, q, 1)
            + poly._times(n * (q * n + 2 * p), q, 2))


def _recurrence_sides(n, p, q):
    """Both right-hand sides of `verify._recurrence_cases` by shift, scaling
    and difference: the oracle of its one-pass sides."""
    series = gegenbauer._series_coeffs
    prev = series(n - 1, p, q) if n else AlphaPoly.zero()
    up_prev = series(n - 1, p + q, q) if n else AlphaPoly.zero()
    return [series(n, p, q).shift(1)._times(2 * (q * n + p), q)
            - prev._times(q * n + 2 * p - q, q),
            (series(n, p + q, q).shift(1) - up_prev)._times(2 * p, q)]


def _perturbed(poly):
    """poly with its k-th numerator raised by k % 3 + 1: no family member."""
    return AlphaPoly._of([v + k % 3 + 1 for k, v in enumerate(poly.nums)],
                         poly.den, poly.grade)


class TestOnePassSides:
    """The ODE residual and the recurrences' right-hand sides are each built
    in one pass over integer numerators; they equal the operator and the
    chains written out in AlphaPoly calculus, on members and non-members."""

    @pytest.mark.parametrize("lam", ONE_PASS_WEIGHTS, ids=str)
    def test_ode_residual_equals_the_operator(self, lam):
        p, q = lam.as_integer_ratio()
        for n in range(41):
            member = gegenbauer._series_coeffs(n, p, q)
            for poly in (member, _perturbed(member), member.d_alpha()):
                residual = verify._ode_residual(poly, n, p, q)
                assert residual == _ode_operator(poly, n, p, q), (n, poly)
            assert verify._ode_residual(member, n, p, q).is_zero
            # a perturbed constant is still a multiple of the degree-0 member
            assert verify._ode_residual(_perturbed(member), n, p, q).is_zero == (n == 0)
        zero = verify._ode_residual(AlphaPoly.zero(), 3, p, q)
        assert zero == _ode_operator(AlphaPoly.zero(), 3, p, q) == AlphaPoly.zero()

    @pytest.mark.parametrize("lam", ONE_PASS_WEIGHTS, ids=str)
    def test_recurrence_sides_equal_the_chains(self, lam):
        p, q = lam.as_integer_ratio()
        for n in range(41):
            cases = list(verify._recurrence_cases(n, p, q))
            assert [rhs for _, _, (_, rhs) in cases] == _recurrence_sides(n, p, q), n
            assert all(lhs == rhs for _, (_, lhs), (_, rhs) in cases), n

    @pytest.mark.parametrize("lam", ONE_PASS_WEIGHTS, ids=str)
    def test_two_term_equals_its_chain_off_the_family(self, lam):
        p, q = lam.as_integer_ratio()
        for n in range(1, 41):
            member = _perturbed(gegenbauer._series_coeffs(n, p, q))
            prev = _perturbed(gegenbauer._series_coeffs(n - 1, p, q))
            up, down = 2 * (q * n + p), q * n + 2 * p - q
            assert (verify._two_term(member, prev, up, down, q)
                    == member.shift(1)._times(up, q) - prev._times(down, q)), n


class TestGeneratingFunction:
    def test_legendre_rows(self):
        rows = generating_function_coeffs(HALF, 3)
        assert rows[2] == [Fraction(-1, 2), Fraction(0), Fraction(3, 2)]
        assert rows[3] == [Fraction(0), Fraction(-3, 2), Fraction(0), Fraction(5, 2)]

    def test_rows_match_constructor(self):
        lam = Fraction(3)
        rows = generating_function_coeffs(lam, 6)
        for n, row in enumerate(rows):
            built = list(from_series(GegenbauerSpec(n, lam)).rational_coeffs())
            built += [Fraction(0)] * (len(row) - len(built))
            assert row == built


    @pytest.mark.parametrize("lam", [HALF, Fraction(1), Fraction(3), Fraction(2, 7)])
    def test_rows_equal_a_fraction_built_reference(self, lam):
        # the binomial expansion term by term in Fractions, as the rows were
        # once built; each cold row is now one Fraction of integers
        for max_n in (0, 1, 2, 7, 10, 24, 40):
            expected = [[Fraction(0)] * (n + 1) for n in range(max_n + 1)]
            for j in range(max_n + 1):
                scale = pochhammer(lam, j) / math.factorial(j)
                for i in range(min(j, max_n - j) + 1):
                    expected[j + i][j - i] += (
                        scale * math.comb(j, i) * Fraction(2) ** (j - i) * Fraction(-1) ** i)
            verify._generating_rows.cache_clear()
            rows = generating_function_coeffs(lam, max_n)
            assert rows == expected, max_n
            assert all(type(c) is Fraction for row in rows for c in row)


# the checks that sweep degrees to their n_max
SWEEPS = (check_constructor_agreement, check_ode_annihilation, check_derivative_ladder,
          check_recurrences, check_endpoint_values)

# checks whose sweep holds no case; each once passed after comparing nothing
NO_CASE = {
    "constructors": lambda: check_constructor_agreement(-1),
    "ode": lambda: check_ode_annihilation(-1),
    "endpoints": lambda: check_endpoint_values(-1),
    "recurrences": lambda: check_recurrences(0),
    "ladder n_max=0": lambda: check_derivative_ladder(0),
}


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

    @pytest.mark.parametrize("suite", ["constructors", "ode", "generating-function", "ladder",
                                       "recurrences", "endpoints", "special-cases"])
    def test_every_exact_suite_reports_the_defect(self, defective_member, suite):
        [rep] = run_asserted_checks(SMALL, suite=suite)
        assert rep.status == "fail" and rep.witness
        if suite in ("constructors", "ode", "ladder", "recurrences"):
            # polynomial sides: the residual is sized at order 1, and says so
            assert rep.max_residual > 0
            assert "order 1" in rep.notes

    @pytest.mark.parametrize("check", NO_CASE.values(), ids=NO_CASE)
    def test_a_check_over_no_case_is_refused(self, check):
        with pytest.raises(ParameterError):
            check()

    def test_special_cases_tolerance(self):
        rep = check_special_cases()
        assert rep.passed
        assert rep.max_residual is not None and rep.max_residual <= 1e-12

    def test_grid_description_in_reports(self):
        rep = check_constructor_agreement(SMALL)
        assert "n <= 5" in rep.grid
        assert "weight in {1/2, 1, 5/2, 3}" in rep.grid


class TestOrderFreeSweeps:
    """The exact sweeps run once per (degree, weight): neither a spec nor a
    grid carries an order, so one run stands for every order."""

    def test_ode_sweep_visits_each_degree_and_weight_once(self, monkeypatch):
        seen = []
        residual = verify._ode_residual
        monkeypatch.setattr(verify, "_ode_residual",
                            lambda poly, n, p, q: seen.append((n, p, q)) or residual(poly, n, p, q))
        assert check_ode_annihilation().passed
        assert len(seen) == len(set(seen)) == 4 * 13

    def test_exact_reports_list_their_weights_and_say_where_they_ran(self):
        reports = {r.identity: r for r in run_asserted_checks(SMALL)}
        for identity in ("constructor-agreement", "ode-annihilation", "derivative-ladder",
                         "recurrences", "endpoint-value"):
            assert reports[identity].grid.endswith(
                "weight in {1/2, 1, 5/2, 3}; exact, order-free")
            assert "order in" not in reports[identity].grid
        # special-cases evaluates at order 1 only, and its grid names that order
        special = reports["special-cases"]
        assert special.grid == "n <= 10, order 1"
        assert special.notes.startswith("reductions exact and order-free;")

    @pytest.mark.parametrize("n_max", [8, 24])
    def test_exact_reports_name_no_order_they_were_checked_at(self, capsys, n_max):
        # only the variant operator's residual, a float, is sized at an order
        assert main(["verify", "--json", "--n-max", str(n_max)]) == 0
        reports = json.loads(capsys.readouterr().out)
        for report in reports:
            texts = report["grid"] + (report["witness"] or "")
            assert "checked at order" not in texts, report["identity"]
            if report["identity"] == "ultraspherical-ode-variant-operator":
                assert report["witness"].startswith("beta=3/2, n=6, order=1: residual = ")
            else:
                assert "order=" not in texts, report["identity"]


EXACT_SUITES = ("constructors", "ode", "generating-function", "ladder",
                "recurrences", "endpoints", "special-cases")
SPEC = "GegenbauerSpec(n={}, lam=Fraction(1, 2)): "


class TestIntegerCases:
    """The exact sweeps build every case from the grid's integers (n, p, q):
    a warm sweep builds no spec, and a failing case still names its spec."""

    @pytest.mark.parametrize("suite", EXACT_SUITES)
    def test_a_warm_sweep_builds_no_spec(self, monkeypatch, suite):
        assert run_asserted_checks(suite=suite)[0].passed

        def refuse(self, *args):
            raise AssertionError(f"a sweep built GegenbauerSpec{args}")

        monkeypatch.setattr(GegenbauerSpec, "__init__", refuse)
        assert run_asserted_checks(suite=suite)[0].passed

    @pytest.mark.parametrize("suite,witness", [
        ("constructors", SPEC.format(1) + "series = x^a + 1; recurrence = x^a"),
        ("ode", SPEC.format(1) + "residual = (2*a^2); zero = 0"),
        ("generating-function", SPEC.format(1) + "generating function = "
         "[Fraction(0, 1), Fraction(1, 1)]; series = [Fraction(1, 1), Fraction(1, 1)]"),
        ("ladder", SPEC.format(2) + "d_alpha^1 C_n = (3*a) x^a; "
         "2^m a^m (lam)_m C_(n-m)^(lam+m) = (3*a) x^a + (a)"),
        ("recurrences", SPEC.format(0) + "(n+1) C_(n+1) = x^a + 1; three-term = x^a"),
        ("endpoints", SPEC.format(1) + "coefficient sum = 2; G(2 lam + n) / (G(2 lam) n!) = 1"),
        ("special-cases", "n=1: second-kind = [Fraction(1, 1), Fraction(2, 1)]; "
         "expected = [Fraction(0, 1), Fraction(2, 1)]"),
    ], ids=EXACT_SUITES)
    def test_the_witness_of_a_defective_member(self, defective_member, suite, witness):
        # the texts the spec-built cases printed, byte for byte; only the
        # series kernel is defective, so the Legendre member stays true
        [rep] = run_asserted_checks(SMALL, suite=suite)
        assert rep.status == "fail" and rep.witness == witness


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

    @pytest.mark.parametrize("residual_at,reach", [
        (None, "it annihilates only n <= 1"),
        ((0,), "it leaves a residual already at degree 0"),
        ((1,), "it annihilates only n <= 0"),
        ((), "it annihilates every case to n <= 6"),
    ], ids=["as-is", "residual-at-0", "residual-at-1", "no-residual"])
    def test_variant_reach_is_measured(self, monkeypatch, residual_at, reach):
        # the variant as it is (None), or one with a residual at the given
        # degrees only; the notes once read "n <= 0" with degree 0 not annihilated
        if residual_at is not None:
            monkeypatch.setattr(verify, "ultraspherical_ode_residual", lambda p, spec: (
                AlphaPoly.constant(1) if spec.n in residual_at else AlphaPoly.zero()))
        rep = audit_ultraspherical()[0]
        assert rep.identity == "ultraspherical-ode-variant-operator"
        assert rep.status == ("exact-pass" if residual_at == () else "fail")
        assert rep.notes == ("variant lacks the (1 - x^(2a)) factor on the second-derivative "
                             f"term; {reach}. The weighted operator annihilates every case "
                             "exactly.")

    def test_series_form_exact(self, audits):
        assert audits["ultraspherical-series-form"].status == "exact-pass"

    @pytest.mark.parametrize("module,name", [(verify, "ultraspherical"),
                                             (gegenbauer, "_series_coeffs")])
    def test_series_form_catches_a_scaled_member(self, monkeypatch, module, name):
        # the audit compares against the generating function's binomial rows,
        # so a fault in the series route itself shows; scaling keeps the
        # member annihilated, so the other audits still run
        build = getattr(module, name)

        def scaled(*args):
            member = build(*args)
            return member.scale(2) if member.degree == 2 else member

        monkeypatch.setattr(module, name, scaled)
        report = {r.identity: r for r in audit_ultraspherical()}["ultraspherical-series-form"]
        assert report.status == "fail"
        assert report.witness.startswith("UltrasphericalSpec(n=2, ")

    @pytest.mark.parametrize("name,audit,identity,first", [
        ("ultraspherical", audit_ultraspherical, "ultraspherical-series-form",
         "UltrasphericalSpec(n=2, beta=Fraction(0, 1)): "),
        ("chebyshev_t", audit_chebyshev_limit, "chebyshev-rodrigues-limit", "n=2: "),
    ])
    def test_witness_names_the_first_offender(self, monkeypatch, name, audit, identity, first):
        # skew degrees 2 and 3 (scaling keeps the variant operator's
        # members annihilated): the witness once named the last mismatch
        build = getattr(verify, name)

        def scaled(*args):
            member = build(*args)
            return member.scale(2) if member.degree in (2, 3) else member

        monkeypatch.setattr(verify, name, scaled)
        report = {r.identity: r for r in audit()}[identity]
        assert report.status == "fail"
        assert report.witness.startswith(first)

    def test_unannihilated_member_is_reported(self, monkeypatch, capsys):
        # a member off by the constant 1 at degrees 2 and 3 once ended
        # `congeg verify` in a bare AssertionError traceback, and, past that,
        # in a ZeroDivisionError of the Rodrigues normalization audit
        build = verify.ultraspherical

        def shifted(spec):
            member = build(spec)
            return member + AlphaPoly.constant(1) if spec.n in (2, 3) else member

        monkeypatch.setattr(verify, "ultraspherical", shifted)
        verify._recorded_audits.cache_clear()
        try:
            reports = {r.identity: r for r in audit_ultraspherical()}
            assert reports["ultraspherical-rodrigues-normalization"].status == "fail"
            rep = reports["ultraspherical-ode-variant-operator"]
            assert rep.status == "fail" and not rep.asserted
            assert rep.witness.startswith("beta=0, n=2: weighted residual = ")
            assert rep.max_residual > 0
            assert "not the variant's expected residual" in rep.notes
            # recorded audits do not gate the exit status
            assert main(["verify", "--suite", "endpoints", "--n-max", "3"]) == 0
            assert "beta=0, n=2: weighted residual" in capsys.readouterr().out
        finally:
            monkeypatch.undo()
            verify._recorded_audits.cache_clear()

    def test_rodrigues_normalization_compares_members_exactly(self, monkeypatch):
        build = verify.from_rodrigues

        def shifted(spec):
            member = build(spec)
            return member + AlphaPoly.constant(1) if spec.n == 3 else member

        monkeypatch.setattr(verify, "from_rodrigues", shifted)
        rep = {r.identity: r for r in audit_ultraspherical()}[
            "ultraspherical-rodrigues-normalization"]
        assert rep.status == "fail" and not rep.asserted
        assert rep.witness.startswith("UltrasphericalSpec(n=3, beta=Fraction(0, 1)): ")

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


class TestFixedBounds:
    """The fixed-degree suites and the recorded audits take no bounds, and the
    sweeps' weights and the normalization audit's weights and orders are
    named constants: a sweep takes only its degree bound, the drivers only
    that, the suite and the audit's tolerance."""

    @pytest.mark.parametrize("name", [n for n in verify.__all__ if n.startswith("check_")])
    def test_a_check_takes_at_most_a_grid(self, name):
        assert set(inspect.signature(getattr(verify, name)).parameters) <= {"n_max"}

    def test_the_drivers_take_a_degree_bound(self):
        assert list(inspect.signature(run_asserted_checks).parameters) == ["n_max", "suite"]
        assert list(inspect.signature(normalization_audit).parameters) == ["n_max", "rel_tol"]

    @pytest.mark.parametrize("audit", [audit_ultraspherical, audit_chebyshev_limit],
                             ids=lambda audit: audit.__name__)
    def test_an_audit_takes_nothing(self, audit):
        assert not inspect.signature(audit).parameters

    def test_the_sample_grid_takes_its_bound_and_count(self):
        assert list(inspect.signature(_sample_grid).parameters) == ["lo", "samples"]


class TestReportPlumbing:
    def test_to_text_marks_recorded(self):
        rep = VerificationReport("demo", "n <= 1", "fail", asserted=False)
        text = rep.to_text()
        assert "does not gate" in text

    def test_json_round_trip(self):
        reports = run_asserted_checks(3)
        data = json.loads(reports_to_json(reports))
        assert [d["identity"] for d in data] == [r.identity for r in reports]
        assert all(set(d) == {"identity", "grid", "status", "max_residual",
                              "witness", "notes", "asserted"} for d in data)

    def test_a_residual_past_the_float_range_still_fails_with_its_witness(self):
        # float() of the residual's coefficient once raised OverflowError here
        rep = verify._exact_report("demo", "g", [
            ((3, 1, 1), ("lhs", AlphaPoly((10 ** 400, 1))), ("rhs", AlphaPoly.zero()))])
        assert rep.status == "fail" and rep.max_residual is None
        assert rep.witness.startswith("GegenbauerSpec(n=3, lam=Fraction(1, 1)): lhs = x^a + 1")
        assert rep.notes == "no max_residual: the residual lies past the float range"
        assert json.loads(reports_to_json([rep]))[0]["max_residual"] is None

    def test_text_concatenation(self):
        reports = [VerificationReport("a", "g", "exact-pass"),
                   VerificationReport("b", "g", "numeric-pass", max_residual=1e-15)]
        text = reports_to_text(reports)
        assert "identity: a" in text and "identity: b" in text

    def test_sweep_cases(self):
        assert list(verify._sweep_cases(2)) == [
            (n, p, q) for p, q in ((1, 2), (1, 1), (5, 2), (3, 1)) for n in range(3)]
        assert list(verify._sweep_cases(-1)) == []

    def test_a_negative_degree_is_refused_by_the_sweeps(self):
        # a negative bound gives no case, which every sweep refuses
        for sweep in SWEEPS:
            with pytest.raises(ParameterError, match="has no case to check over n <= -"):
                sweep(-1)
        with pytest.raises(ParameterError, match="must be >= 3"):
            run_asserted_checks(-1)

    @pytest.mark.parametrize("fields", [{"n_max": 3.5}, {"n_max": True}, {"n_max": "4"}])
    def test_a_degree_bound_that_is_not_an_int_is_refused(self, fields):
        # n_max=3.5 once raised a bare TypeError inside the first sweep
        message = f"^n_max must be an integer, got {fields['n_max']!r}$"
        for entry in (run_asserted_checks, *SWEEPS):
            with pytest.raises(ParameterError, match=message):
                entry(**fields)


class TestUltrasphericalOperator:
    def test_full_operator_annihilates(self):
        from congeg.gegenbauer import UltrasphericalSpec, ultraspherical
        spec = UltrasphericalSpec(4, HALF)
        res = ode_residual(ultraspherical(spec), GegenbauerSpec(4, 1))
        assert res.is_zero

    def test_printed_form_fails_beyond_degree_one(self):
        from congeg.gegenbauer import UltrasphericalSpec, ultraspherical
        ok = UltrasphericalSpec(1, HALF)
        assert ultraspherical_ode_residual(ultraspherical(ok), ok).is_zero
        bad = UltrasphericalSpec(3, HALF)
        assert not ultraspherical_ode_residual(ultraspherical(bad), bad).is_zero

    @pytest.mark.parametrize("n,beta,alpha", [
        (3, HALF, HALF), (5, Fraction(0), Fraction(1)), (6, Fraction(3, 2), Fraction(1, 4))])
    def test_printed_form_term_by_term(self, n, beta, alpha):
        # D2 - a (2 beta + 2) x^a D + a^2 n (n + 2 beta + 1), written out
        from congeg.gegenbauer import UltrasphericalSpec, ultraspherical
        spec = UltrasphericalSpec(n, beta)
        p = ultraspherical(spec)
        d1 = p.d_alpha()
        printed = (d1.d_alpha() - d1.shift(1).scale(2 * (beta + 1), power=1)
                   + p.scale(n * (n + 2 * beta + 1), power=2))
        residual = ultraspherical_ode_residual(p, spec)
        assert residual == printed
        assert residual.values((-0.5, 0.3), alpha) == printed.values((-0.5, 0.3), alpha)


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
            run_asserted_checks(n_max)


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
    """At order 1 special-cases compares a member's float values (Horner, or
    the Clenshaw sum past Horner's bound) with the direct route's
    three-term recurrence, which rounds differently, so float error in
    either shows."""

    def test_default_run_measures_rounding(self):
        rep = check_special_cases()
        assert rep.status == "numeric-pass"
        assert 0.0 < rep.max_residual <= 1e-12

    def test_skewed_evaluation_fails(self, monkeypatch):
        values = gegenbauer._member_values
        monkeypatch.setattr(gegenbauer, "_member_values",
                            lambda n, p, q, xs, a: [v + 1e-9 for v in values(n, p, q, xs, a)])
        rep = check_special_cases()
        assert rep.status == "fail"
        assert rep.witness.startswith("order-1 evaluation n=")
        assert rep.max_residual > 1e-12


def _clear_every_memo():
    for module in (gegenbauer, quadrature, verify):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


class TestOraclesOncePerProcess:
    """The oracles of the fixed-degree suites are kept per process; the
    members, their float values and every comparison still run per call."""

    @pytest.mark.parametrize("args", [[], ["--json"], ["--n-max", "24"],
                                      ["--json", "--n-max", "24"]])
    def test_warm_output_equals_cold(self, capsys, args):
        _clear_every_memo()
        outputs = []
        for _ in range(2):
            assert main(["verify", *args]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_special_cases_warm_equals_cold(self):
        _clear_every_memo()
        cold = check_special_cases()
        assert check_special_cases() == cold
        assert verify._special_reference.cache_info().hits == 3

    def test_a_warm_process_still_catches_skewed_evaluation(self, monkeypatch):
        assert check_special_cases().passed
        values = gegenbauer._member_values
        monkeypatch.setattr(gegenbauer, "_member_values",
                            lambda n, p, q, xs, a: [v + 1e-9 for v in values(n, p, q, xs, a)])
        rep = check_special_cases()
        assert rep.status == "fail" and rep.max_residual > 1e-12

    @pytest.mark.parametrize("suite", ["generating-function", "endpoints", "special-cases"])
    def test_a_warm_process_still_catches_a_defective_member(self, request, suite):
        assert run_asserted_checks(SMALL, suite=suite)[0].passed
        request.getfixturevalue("defective_member")
        [rep] = run_asserted_checks(SMALL, suite=suite)
        assert rep.status == "fail" and "n=1" in rep.witness

    def test_returned_lists_are_the_callers_own(self):
        rows = generating_function_coeffs(Fraction(3), 4)
        expected = [list(row) for row in rows]
        rows[2][0] = Fraction(99)
        rows.append([])
        assert generating_function_coeffs(Fraction(3), 4) == expected
        oracle = gegenbauer.classical_oracle(4, 3)
        oracle[0] = Fraction(99)
        assert gegenbauer.classical_oracle(4, 3) == [6, 0, -120, 0, 240]


class TestNoPolynomialProduct:
    """No program path multiplies two AlphaPolys.  `__mul__` keeps its
    polynomial branch for callers of the public arithmetic."""

    def test_no_program_path_multiplies_two_polynomials(self, monkeypatch, capsys):
        audits = run_recorded_audits()
        mul = AlphaPoly.__mul__

        def refuse(self, other):
            if isinstance(other, AlphaPoly):
                raise AssertionError("a program path multiplied two AlphaPolys")
            return mul(self, other)

        monkeypatch.setattr(AlphaPoly, "__mul__", refuse)
        _clear_every_memo()
        assert all(r.passed for r in run_asserted_checks())
        assert audit_ultraspherical() + audit_chebyshev_limit() == audits
        for argv in (["eval", "--n", "5", "--x", "0.5"], ["plot-data"], ["table"], ["audit"]):
            assert main(argv) == 0, argv
        capsys.readouterr()
        with pytest.raises(AssertionError):
            AlphaPoly((1, 1)) * AlphaPoly((1, 1))
