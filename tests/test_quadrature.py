"""Weighted inner products, normalization candidates, and the audit."""
import gc
import math
import re
from fractions import Fraction

import pytest

import congeg.gegenbauer as gegenbauer
import congeg.quadrature as quadrature
from congeg.alphapoly import AlphaPoly, DomainError, ParameterError
from congeg.gegenbauer import classical_oracle
from congeg.quadrature import (AccuracyError, AuditRow, QuadratureResult, audit_rows_to_csv,
                               classical_norm, conformable_inner_product,
                               conformable_inner_product_direct, normalization_audit,
                               normalization_closed_form,
                               normalization_gamma_product, orthogonality_check)

HALF = Fraction(1, 2)
ONE = Fraction(1)
QUARTER = Fraction(1, 4)

CSV_HEADER = ("n,lambda,alpha,quadrature,closed_form,gamma_product,derived,"
              "rel_diff_quadrature_vs_derived")


class TestDiagonals:
    def test_weight_one_order_one(self):
        got = conformable_inner_product(0, 0, ONE, ONE)
        assert got.value == pytest.approx(math.pi / 2, rel=1e-12)
        assert got.error >= 0.0

    def test_weight_one_order_half(self):
        got = conformable_inner_product(0, 0, ONE, HALF)
        assert got.value == pytest.approx(math.pi, rel=1e-12)

    @pytest.mark.parametrize("n,lam,alpha", [
        (2, ONE, ONE), (3, Fraction(3), HALF), (1, Fraction(3), QUARTER),
        (4, ONE, Fraction(3, 4)),
    ])
    def test_matches_scaled_classical(self, n, lam, alpha):
        got = conformable_inner_product(n, n, lam, alpha).value
        want = classical_norm(n, lam) / float(alpha)
        assert got == pytest.approx(want, rel=1e-10)

    def test_classical_norm_frozen(self):
        assert classical_norm(2, ONE) == pytest.approx(math.pi / 2, rel=1e-15)
        assert classical_norm(0, ONE) == pytest.approx(math.pi / 2, rel=1e-15)

    def test_bad_weight(self):
        with pytest.raises(ParameterError):
            conformable_inner_product(0, 0, Fraction(0), ONE)

    # the exact sum is finite and dividing by the smallest subnormal order
    # is not; at degree 250, weight 1000 the exact sum's int / int overflows
    @pytest.mark.parametrize("n,lam,alpha,shown", [(1, ONE, 5e-324, "5e-324"),
                                                   (250, 1000, ONE, "1.0")],
                             ids=["scaling", "exact-sum"])
    def test_value_past_the_float_range_is_refused(self, n, lam, alpha, shown):
        with pytest.raises(AccuracyError, match=f"order {shown} lies past the float range"):
            conformable_inner_product(n, n, lam, alpha)


class TestOffDiagonals:
    @pytest.mark.parametrize("m,n", [(0, 1), (1, 3), (2, 4), (0, 2)])
    def test_vanish_relative_to_diagonal(self, m, n):
        lam, alpha = Fraction(3), HALF
        cross = conformable_inner_product(m, n, lam, alpha).value
        scale = math.sqrt(conformable_inner_product(m, m, lam, alpha).value
                          * conformable_inner_product(n, n, lam, alpha).value)
        assert abs(cross) <= 1e-10 * scale

    def test_sweep_report(self):
        rep = orthogonality_check(n_max=4)
        assert rep.status == "numeric-pass"
        assert rep.max_residual is not None and rep.max_residual <= 1e-8

    def test_high_degree_sweep_is_exactly_zero(self):
        # the moment sums are exact, so every off-diagonal is exactly 0.0
        rep = orthogonality_check(
            n_max=96, lambdas=(HALF, ONE, Fraction(5, 2), Fraction(3)),
            alphas=(QUARTER, HALF, ONE))
        assert rep.status == "numeric-pass"
        assert rep.max_residual == 0.0
        assert "degrees 0 to 96" in rep.notes


@pytest.fixture
def fresh_moment_weighted():
    # a skewed W_n left in the memo would reach every later test
    memo = quadrature._moment_weighted
    memo.cache_clear()
    yield
    memo.cache_clear()


class TestOrthogonalityWitnesses:
    def test_skewed_coefficient_names_its_entry(self, monkeypatch, fresh_moment_weighted):
        # C_5 is odd; a constant term of 1/den makes W_5[0] = mu_0 / den nonzero
        def skewed(n, p, q):
            poly = gegenbauer._series_coeffs(n, p, q)
            if n != 5:
                return poly
            return AlphaPoly._of([poly.nums[0] + 1, *poly.nums[1:]], poly.den, poly.grade)

        monkeypatch.setattr(quadrature, "_series_coeffs", skewed)
        rep = orthogonality_check(n_max=6, lambdas=(Fraction(3),), alphas=(HALF, ONE))
        assert rep.status == "fail" and not rep.passed
        assert rep.witness.startswith("n=5, i=0, weight=3: ")

    def test_flipped_leading_sign_names_the_diagonal(self, monkeypatch):
        # every W_5[i], i < 5, stays 0; only the sign of <C_5, C_5> turns
        kernel = quadrature._moment_weighted

        def flipped(n, p, q):
            weighted, den = kernel(n, p, q)
            if n != 5:
                return weighted, den
            return (*weighted[:-1], -weighted[-1]), den

        monkeypatch.setattr(quadrature, "_moment_weighted", flipped)
        rep = orthogonality_check(n_max=6, lambdas=(ONE,), alphas=(HALF,))
        assert rep.status == "fail"
        assert rep.witness.startswith("n=5, i=5, weight=1: ")
        assert "not positive" in rep.witness

    def test_member_short_of_its_degree_names_a_lower_entry(
            self, monkeypatch, fresh_moment_weighted):
        # C_5 without its top term is c_1 u + c_3 u^3, which u^1 does not miss
        def short(n, p, q):
            poly = gegenbauer._series_coeffs(n, p, q)
            if n != 5:
                return poly
            return AlphaPoly._of(list(poly.nums[:-1]), poly.den, poly.grade)

        monkeypatch.setattr(quadrature, "_series_coeffs", short)
        rep = orthogonality_check(n_max=6, lambdas=(Fraction(3),), alphas=(HALF,))
        assert rep.status == "fail"
        assert rep.witness.startswith("n=5, i=1, weight=3: ")

    def test_zero_member_names_the_diagonal(self, monkeypatch, fresh_moment_weighted):
        # every W_5[i] is 0, and c_5, which the zero member lacks, reads as 0
        def zero(n, p, q):
            poly = gegenbauer._series_coeffs(n, p, q)
            return AlphaPoly._of([], 1, 0) if n == 5 else poly

        monkeypatch.setattr(quadrature, "_series_coeffs", zero)
        rep = orthogonality_check(n_max=6, lambdas=(Fraction(3),), alphas=(HALF,))
        assert rep.status == "fail"
        assert rep.witness == "n=5, i=5, weight=3: <C_n, C_n> is not positive"


KERNEL_WEIGHTS = [Fraction(1, 2), Fraction(1), Fraction(5, 2), Fraction(3), Fraction(2, 7),
                  Fraction(7, 3), Fraction(675, 22)]


def _fraction_moments(lam, count):
    """mu_2k / B(1/2, base + 1/2) for k < count, term by term in Fractions,
    each reduced, then put over the lcm of their denominators."""
    shift = math.floor(lam)
    base = lam - shift
    moment = Fraction(1)
    for t in range(shift):
        moment *= (base + HALF + t) / (base + 1 + t)
    moments = []
    for k in range(count):
        moments.append(moment)
        moment *= (k + HALF) / (lam + 1 + k)
    den = math.lcm(*(v.denominator for v in moments))
    return tuple(v.numerator * (den // v.denominator) for v in moments), den


class TestExactKernels:
    """The integer kernels return exactly the integers of their definitions."""

    @pytest.mark.parametrize("lam", KERNEL_WEIGHTS)
    def test_scaled_moments_match_fraction_products(self, lam):
        for count in range(1, 131):
            assert (quadrature._scaled_moments(*lam.as_integer_ratio(), count)
                    == _fraction_moments(lam, count))

    @pytest.mark.parametrize("lam", KERNEL_WEIGHTS)
    def test_moment_weighted_matches_its_defining_sum(self, lam):
        # W_i = sum over j = i mod 2, i mod 2 + 2, ..., n of d_j mu_((i+j)/2)
        p, q = lam.as_integer_ratio()
        for n in range(61):
            d = gegenbauer._series_coeffs(n, p, q)
            moments, mu_den = _fraction_moments(lam, n + 1)
            want = tuple(sum(d.nums[j] * moments[(i + j) // 2]
                             for j in range(i % 2, n + 1, 2)) for i in range(n + 1))
            assert quadrature._moment_weighted.__wrapped__(n, p, q) == (want, mu_den * d.den)


class TestCells:
    """A cell is looked up by the integers of its checked weight and order."""

    def test_one_entry_per_weight_however_written(self):
        quadrature._cells.cache_clear()
        first = quadrature._cell(1, HALF)
        assert all(quadrature._cell(lam, HALF) is first for lam in (1.0, "1", Fraction(2, 2)))
        assert quadrature._cells.cache_info().currsize == 1
        assert (first.p, first.q, first.lam, first.alpha) == (1, 1, ONE, HALF)

    @pytest.mark.parametrize("bad", [True, [1]], ids=["bool", "list"])
    def test_bool_and_list_are_refused(self, bad):
        with pytest.raises(ParameterError, match="expected an exact rational"):
            quadrature._cell(bad, HALF)
        with pytest.raises(ParameterError, match="order must be a real number"):
            quadrature._cell(ONE, bad)


class TestOrthogonalityArguments:
    @pytest.mark.parametrize("n_max", [3.5, True, -1])
    def test_bad_n_max(self, n_max):
        # 3.5 raised a bare TypeError, True ran as 1 and -1 passed over no pairs
        with pytest.raises(ParameterError, match="n_max must be a nonnegative integer"):
            orthogonality_check(n_max=n_max)

    @pytest.mark.parametrize("lambdas,alphas,message", [
        ((ONE, 0), (HALF,), "weight parameter must be positive"),
        ((ONE,), (HALF, True), "order must be a real number"),
        ((ONE, Fraction(3)), (ONE, Fraction(3, 2)), "order must lie in"),
    ])
    def test_every_weight_and_order_checked_first(self, monkeypatch, lambdas, alphas, message):
        calls = []
        monkeypatch.setattr(quadrature, "_moment_weighted",
                            lambda *args: calls.append(args))
        with pytest.raises(ParameterError, match=message):
            orthogonality_check(n_max=2, lambdas=lambdas, alphas=alphas)
        assert calls == []

    @pytest.mark.parametrize("fields", [{"lambdas": ()}, {"alphas": ()}])
    def test_empty_weights_or_orders(self, monkeypatch, fields):
        # both once reported numeric-pass over no pairs
        calls = []
        monkeypatch.setattr(quadrature, "_moment_weighted",
                            lambda *args: calls.append(args))
        with pytest.raises(ParameterError, match="must not be empty"):
            orthogonality_check(4, **fields)
        assert calls == []

    def test_grid_prints_the_checked_values(self):
        # floats were once printed as written, not as the binary fractions
        # that were checked
        rep = orthogonality_check(3, (0.1,), (0.7,))
        assert rep.grid == (f"m != n <= 3, weight in {{{Fraction(0.1)}}}, "
                            f"order in {{{Fraction(0.7)}}}")
        assert "3602879701896397/36028797018963968" in rep.grid
        rep = orthogonality_check(3, ("5/2", 1, Fraction(3)), (HALF, "3/4", 1))
        assert rep.grid == "m != n <= 3, weight in {5/2, 1, 3}, order in {1/2, 3/4, 1}"

    def test_degree_zero_is_valid(self):
        rep = orthogonality_check(n_max=0)
        assert rep.status == "numeric-pass" and rep.max_residual == 0.0


class TestExactDiagonals:
    @pytest.mark.parametrize("n,lam,alpha", [
        (30, HALF, QUARTER), (40, Fraction(5, 2), Fraction(1, 3)),
        (60, Fraction(3), ONE), (60, Fraction(343, 11), Fraction(2, 3)),
    ])
    def test_within_error_of_high_precision_reference(self, n, lam, alpha):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            lam_mp = mpmath.mpf(lam.numerator) / lam.denominator
            ref = (mpmath.pi * mpmath.mpf(2) ** (1 - 2 * lam_mp)
                   * mpmath.gamma(n + 2 * lam_mp)
                   / (mpmath.factorial(n) * (n + lam_mp) * mpmath.gamma(lam_mp) ** 2)
                   * alpha.denominator / alpha.numerator)
            got = conformable_inner_product(n, n, lam, alpha)
            assert got.nodes_used == 0
            assert 0.0 < got.error <= 1e-14 * got.value
            assert abs(mpmath.mpf(got.value) - ref) <= got.error


WEIGHTS = (HALF, ONE, Fraction(5, 2), Fraction(3))
ORDERS = (QUARTER, HALF, Fraction(3, 4), ONE)
_FIRST_CASES = [(2, 2, Fraction(3), HALF), (1, 1, ONE, QUARTER),
                (3, 3, ONE, Fraction(3, 4)), (1, 3, Fraction(3), HALF), (0, 0, HALF, ONE)]
# the benchmark's direct grid, m <= n <= 12 over four weights and four orders,
# after the first cases (which keep their test ids), and one case at degree 26
DIRECT_CASES = _FIRST_CASES + [
    (m, n, lam, alpha) for lam in WEIGHTS for alpha in ORDERS
    for n in range(13) for m in range(n + 1)
    if (m, n, lam, alpha) not in _FIRST_CASES] + [(26, 26, ONE, QUARTER)]


class TestDirectRoute:
    @pytest.mark.parametrize("m,n,lam,alpha", DIRECT_CASES)
    def test_agrees_with_substituted_route(self, m, n, lam, alpha):
        direct = conformable_inner_product_direct(m, n, lam, alpha)
        exact = conformable_inner_product(m, n, lam, alpha).value
        scale = math.sqrt(conformable_inner_product(m, m, lam, alpha).value
                          * conformable_inner_product(n, n, lam, alpha).value)
        assert direct.nodes_used == 642
        assert abs(direct.value - exact) <= direct.error
        assert abs(direct.value - exact) <= 1e-10 * scale

    @pytest.mark.parametrize("degree", [-1, 1.5, True])
    def test_bad_degree(self, degree):
        with pytest.raises(ParameterError):
            conformable_inner_product_direct(degree, 1, ONE, ONE)

    def test_first_refusal_carries_an_accurate_estimate(self):
        # the first refusal of the standard weights and orders, by degree; its
        # estimate is within 9.7e-16 of the exact diagonal, since the refusal
        # comes from the nested h = 1/16 rule, not from the h = 1/32 one
        with pytest.raises(AccuracyError, match="nested h = 1/16 rule") as info:
            conformable_inner_product_direct(28, 28, Fraction(3), ONE)
        exact = conformable_inner_product(28, 28, Fraction(3), ONE).value
        assert info.value.best.value == pytest.approx(exact, rel=1e-14, abs=0)

    @pytest.mark.parametrize("lam", [HALF, ONE, Fraction(5, 2), Fraction(3), Fraction(2, 7)])
    def test_recurrence_matches_exact_oracle(self, lam):
        # the float recurrence the direct route and special-cases share,
        # against exact evaluation at dyadic points, where u = x is exact
        for x in (Fraction(k, 64) for k in range(-64, 65, 5)):
            values = quadrature._gegenbauer_values(40, float(lam), float(x))
            assert len(values) == 41
            for n, value in enumerate(values):
                coeffs = classical_oracle(n, lam)
                exact = sum(c * x ** i for i, c in enumerate(coeffs))
                scale = max(1, sum(abs(c) for c in coeffs))
                assert abs(value - exact) <= 1e-13 * scale, (n, x)


class TestNormalizationFormulas:
    def test_closed_form_anchor(self):
        # degree 0, weight 1, order 1: sqrt(pi)/2, not the quadrature pi/2
        got = normalization_closed_form(0, ONE, ONE)
        assert got == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-14)

    def test_product_form_anchor(self):
        assert normalization_gamma_product(0, ONE, ONE) == pytest.approx(
            math.pi / 2, rel=1e-14)

    def test_product_form_matches_classical_at_order_one(self):
        for n in range(5):
            for lam in (ONE, Fraction(3), Fraction(5, 2)):
                assert normalization_gamma_product(n, lam, ONE) == pytest.approx(
                    classical_norm(n, lam), rel=1e-12)

    @pytest.mark.parametrize("n,lam,alpha", [
        (0, ONE, Fraction(3, 4)), (2, Fraction(3), QUARTER), (3, ONE, ONE),
    ])
    def test_product_is_root_pi_alpha_times_closed(self, n, lam, alpha):
        ratio = (normalization_gamma_product(n, lam, alpha)
                 / normalization_closed_form(n, lam, alpha))
        assert ratio == pytest.approx(math.sqrt(math.pi * float(alpha)), rel=1e-12)

    def test_pole_at_order_half(self):
        # 5/2 - a - 1/a hits zero at a = 1/2
        with pytest.raises(DomainError):
            normalization_closed_form(0, ONE, HALF)
        with pytest.raises(DomainError):
            normalization_gamma_product(2, Fraction(3), HALF)

    def test_validation(self):
        with pytest.raises(ParameterError):
            normalization_closed_form(-1, ONE, ONE)
        with pytest.raises(ParameterError):
            normalization_closed_form(0, Fraction(-1), ONE)

    @pytest.mark.parametrize("degree", [-1, 1.5, True, False])
    def test_bad_degree(self, degree):
        # the same degree check as the constructors: a bool is not a degree
        with pytest.raises(ParameterError):
            normalization_closed_form(degree, ONE, ONE)
        with pytest.raises(ParameterError):
            normalization_gamma_product(degree, ONE, ONE)
        with pytest.raises(ParameterError):
            classical_norm(degree, ONE)

    # a float power or gamma on the way overflows, where the value itself
    # may not: B(1/2, 200.5) ~ 0.125 needs G(400), and the closed form at
    # degree 200 (~ 0.886) needs G(202); each once raised a bare OverflowError
    @pytest.mark.parametrize("formula,args,at", [
        (normalization_closed_form, (0, ONE, 1e-10), "closed form at degree 0, weight 1, "
                                                     "order 1e-10"),
        (normalization_gamma_product, (0, ONE, 1e-10), "product form at degree 0, weight 1, "
                                                       "order 1e-10"),
        (classical_norm, (200, ONE), "classical norm at degree 200, weight 1"),
        (classical_norm, (0, 200), "classical norm at degree 0, weight 200"),
        (normalization_closed_form, (200, ONE, ONE), "closed form at degree 200, weight 1, "
                                                     "order 1.0"),
    ], ids=["closed-form-power", "product-form-power", "classical-degree", "classical-weight",
            "closed-form-degree"])
    def test_overflow_on_the_way_is_refused(self, formula, args, at):
        message = f"{at}: a float gamma value or power on the way lies past the float range"
        with pytest.raises(AccuracyError, match=f"^{re.escape(message)}$"):
            formula(*args)


@pytest.fixture(scope="module")
def report():
    return normalization_audit()


def _default_triples(n_max):
    """The default audit's (n, weight, order) rows in their order: weight,
    then order, then degree, for weights 1, 3 and orders 1/4, 1/2, 1."""
    return [(n, lam, alpha) for lam in (ONE, Fraction(3)) for alpha in (QUARTER, HALF, ONE)
            for n in range(n_max + 1)]


class TestAudit:
    def test_quadrature_vs_derived_passes(self, report):
        assert report.status == "numeric-pass"
        assert report.max_residual is not None and report.max_residual <= 1e-6

    def test_high_degree_grid_passes(self):
        rep = normalization_audit(32)
        assert len(rep.table) == 6 * 33
        assert rep.status == "numeric-pass"

    def test_grid_shape(self, report):
        assert [(r.n, r.lam, r.alpha) for r in report.table] == _default_triples(6)
        assert len(report.table) == 42

    def test_pole_rows_are_nan(self, report):
        nan_rows = [r for r in report.table if math.isnan(r.closed_form)]
        assert nan_rows
        assert all(float(r.alpha) == 0.5 for r in nan_rows)
        assert all(math.isnan(r.gamma_product) for r in nan_rows)

    def test_only_the_pole_rows_are_nan_to_degree_165(self):
        # each degree-dependent gamma is divided by its partner before the
        # product, so the formulas overflow nowhere below degree 166
        for r in normalization_audit(165).table:
            pole = r.alpha == HALF
            assert math.isnan(r.closed_form) == math.isnan(r.gamma_product) == pole, r

    def test_anchor_row_flagged_in_notes(self, report):
        row = next(r for r in report.table
                   if r.n == 0 and r.lam == 1 and float(r.alpha) == 1.0)
        assert row.closed_form == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-12)
        assert row.quadrature == pytest.approx(math.pi / 2, rel=1e-10)
        assert "degree 0, weight 1, order 1" in report.notes

    _FIRST = ("first: n=0, weight=1, order=1/4 (closed form); the product form equals "
              "sqrt(pi) * sqrt(order) * closed form, so at order 1 only the closed form "
              "disagrees (by 1/sqrt(pi))")

    @pytest.mark.parametrize("rel_tol,notes", [
        (1e-6, f"70 of 84 formula comparisons flagged (recorded, not asserted); {_FIRST}; "
               "flagged at degree 0, weight 1, order 1: closed form 0.8862269254527579 vs "
               "quadrature 1.5707963267948966"),
        # the anchor's closed form is off by 1 - 1/sqrt(pi) ~ 0.44, inside 0.5
        (0.5, f"56 of 84 formula comparisons flagged (recorded, not asserted); {_FIRST}"),
    ], ids=["default", "anchor-inside-tolerance"])
    def test_notes(self, rel_tol, notes):
        report = normalization_audit(6, rel_tol)
        assert report.notes == notes
        assert report.status == "numeric-pass" and report.witness is None

    @pytest.mark.parametrize("n_max,witness", [
        (6, "n=5, weight=3, order=1/4: quadrature 371.1006322052943 vs derived "
            "371.10063220529435"),
        (0, "n=0, weight=3, order=1/4: quadrature 3.9269908169872414 vs derived "
            "3.926990816987241"),
    ])
    def test_failing_witness_names_the_worst_row(self, n_max, witness):
        # past the diagonal's last bits only the worst row is named
        report = normalization_audit(n_max, 1e-17)
        assert report.status == "fail" and report.witness == witness

    def test_rows_keep_rel_diff(self, report):
        assert all(r.rel_diff_quadrature_vs_derived <= 1e-6 for r in report.table)

    def test_csv_layout(self, report):
        text = audit_rows_to_csv(report.table)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(report.table)
        assert text == audit_rows_to_csv(report.table)
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "1" and first[2] == "1/4"

    def test_cases_are_checked_before_any_row(self, monkeypatch):
        # the degree bound, then the tolerance, is checked before any row
        def no_row(*args):
            raise AssertionError("audit row built before the cases were checked")

        monkeypatch.setattr(quadrature, "_audit_row", no_row)
        with pytest.raises(ParameterError, match="n_max must be a nonnegative integer"):
            normalization_audit(-1, rel_tol=2.0)
        with pytest.raises(ParameterError, match="rel_tol must lie strictly between 0 and 1"):
            normalization_audit(2, rel_tol=2.0)

    @pytest.mark.parametrize("rel_tol", [math.nan, math.inf, 0.0, 1.0, 2.0, -1e-6])
    def test_tolerance_outside_unit_interval_is_refused(self, rel_tol):
        # a NaN tolerance once failed the audit and flagged only the NaN rows;
        # 2.0 passed it
        with pytest.raises(ParameterError,
                           match="rel_tol must lie strictly between 0 and 1"):
            normalization_audit(rel_tol=rel_tol)

    @pytest.mark.parametrize("rel_tol", [None, "1e-6", True, False, 1e-6j])
    def test_tolerance_that_is_not_a_real_number_is_refused(self, rel_tol):
        # None and "1e-6" once raised a bare TypeError from the comparison
        message = f"rel_tol must be a real number, got {rel_tol!r}"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            normalization_audit(rel_tol=rel_tol)


AUDIT_WEIGHTS = (HALF, ONE, Fraction(5, 2), Fraction(3), Fraction(2, 7), Fraction(343, 11))
AUDIT_ORDERS = (QUARTER, Fraction(1, 3), HALF, Fraction(2, 3), Fraction(7, 10), ONE)


def _or_nan(formula, *args):
    try:
        return formula(*args)
    except DomainError:
        return math.nan


def _row_from_public_formulas(n, lam, alpha):
    """One audit row computed triple by triple through the public functions."""
    quad = conformable_inner_product(n, n, lam, alpha).value
    derived = classical_norm(n, lam) / float(alpha)
    return AuditRow(n, lam, alpha, quad,
                    _or_nan(normalization_closed_form, n, lam, alpha),
                    _or_nan(normalization_gamma_product, n, lam, alpha),
                    derived, abs(quad - derived) / abs(derived))


def _floats(row):
    return [v.hex() for v in (row.quadrature, row.closed_form, row.gamma_product,
                              row.derived, row.rel_diff_quadrature_vs_derived)]


class TestAuditAgainstPublicFormulas:
    def test_rows_match_float_for_float(self):
        # the audit's row kernel, off the audit's own weights and orders too
        poles = 0
        for lam in AUDIT_WEIGHTS:
            for alpha in AUDIT_ORDERS:
                for n in range(31):
                    row = quadrature._audit_row(
                        n, *lam.as_integer_ratio(), *alpha.as_integer_ratio())
                    want = _row_from_public_formulas(n, lam, alpha)
                    assert (row.n, row.lam, row.alpha) == (n, lam, alpha)
                    assert _floats(row) == _floats(want), (n, lam, alpha)
                    poles += math.isnan(row.closed_form)
        assert poles  # the grid reaches the formulas' gamma poles

    @pytest.mark.parametrize("k", [0, 6, 32])
    def test_csv_matches_public_formulas(self, k):
        want = "".join(
            f"{r.n},{r.lam},{r.alpha},{r.quadrature!r},{r.closed_form!r},"
            f"{r.gamma_product!r},{r.derived!r},{r.rel_diff_quadrature_vs_derived!r}\n"
            for r in (_row_from_public_formulas(*t) for t in _default_triples(k)))
        assert audit_rows_to_csv(normalization_audit(k).table) == CSV_HEADER + "\n" + want


def _clear_memos():
    for module in (gegenbauer, quadrature):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def _audit_output(report):
    """Everything of an audit report that reaches the CLI or a caller."""
    return (audit_rows_to_csv(report.table), report.status, report.max_residual,
            report.witness, report.notes, report.grid)


def _flag_count(report):
    return int(report.notes.split(" of ")[0])


# each an audit's n_max
WARM_COLD_GRIDS = {f"default-{k}": (k,) for k in (0, 6, 32, 40)}


class TestAuditMemo:
    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-30])
    @pytest.mark.parametrize("name", WARM_COLD_GRIDS)
    def test_warm_audit_equals_cold(self, name, rel_tol):
        grid = WARM_COLD_GRIDS[name]
        _clear_memos()
        cold = normalization_audit(*grid, rel_tol=rel_tol)
        info = quadrature._audit_row.cache_info()
        warm = normalization_audit(*grid, rel_tol=rel_tol)
        assert quadrature._audit_row.cache_info().hits - info.hits == len(cold.table)
        assert _audit_output(warm) == _audit_output(cold)
        assert (warm.status == "fail") == (rel_tol < 1e-20) == (warm.witness is not None)

    def test_repeated_triple_reuses_its_row(self):
        table = normalization_audit(4).table
        assert len(table) == 2 * 3 * 5
        assert all(a is b for a, b in zip(normalization_audit(4).table, table))

    def test_one_memo_serves_every_tolerance(self):
        grid = (27,)
        rows = len(normalization_audit(*grid).table)
        hits = quadrature._audit_row.cache_info().hits
        warm = {tol: normalization_audit(*grid, rel_tol=tol) for tol in (1e-6, 0.5)}
        assert quadrature._audit_row.cache_info().hits - hits == 2 * rows
        for tol, report in warm.items():
            _clear_memos()
            assert _audit_output(report) == _audit_output(normalization_audit(*grid, rel_tol=tol))
        assert _flag_count(warm[1e-6]) > _flag_count(warm[0.5])

    def test_overflow_raises_on_every_audit(self):
        for _ in range(2):
            with pytest.raises(DomainError, match="n=166, weight=3, order=1/4: the "
                               "normalization values overflow a float"):
                normalization_audit(166)

    def test_user_row_formats_its_fields(self):
        row = AuditRow(2, Fraction(5, 2), QUARTER, 1.5, math.nan, -0.1, 1.5, 0.0)
        assert audit_rows_to_csv([row]) == CSV_HEADER + "\n2,5/2,1/4,1.5,nan,-0.1,1.5,0.0\n"


def test_repeated_audits_leave_no_garbage():
    # a pole row raises DomainError on every audit; nothing of it may stay
    # behind, as a traceback held by a cached object would
    grid = (7,)
    assert math.isnan(normalization_audit(*grid).table[8].closed_form)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for _ in range(200):
            normalization_audit(*grid)
        after = len(gc.get_objects())
    finally:
        gc.enable()
    assert after == before


class TestAccuracyBudget:
    def test_budget_exhaustion_carries_best(self, monkeypatch):
        # at degree 24 the nested h = 1/16 rule is about 4e-13 (relative)
        # off the full rule, far above 1e-300; at low degree both can agree
        # to the last bit, which no tolerance rejects
        monkeypatch.setattr(quadrature, "_REL_TOL", 1e-300)
        with pytest.raises(AccuracyError) as info:
            conformable_inner_product_direct(24, 24, Fraction(3), ONE)
        best = info.value.best
        assert isinstance(best, QuadratureResult)
        assert best.value == pytest.approx(classical_norm(24, Fraction(3)), rel=1e-3)
        assert best.error > 0.0 and best.nodes_used == 642
