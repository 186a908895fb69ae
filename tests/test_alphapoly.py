"""Exact arithmetic layer: graded polynomials, gamma helpers."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congeg.alphapoly import (AlphaPoly, DomainError, GammaRatio, ParameterError,
                              gamma_quotient, pochhammer)

HALF = Fraction(1, 2)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)
orders = st.sampled_from([Fraction(1, 4), HALF, Fraction(3, 4), Fraction(1)])
coeff_lists = st.lists(rationals, max_size=6)


# ---------------------------------------------------------------------------
# grade: the power of the order symbol on the whole polynomial


class TestGrade:
    def test_mixed_grade_addition_rejected(self):
        p = AlphaPoly.monomial(HALF, 1)
        with pytest.raises(ParameterError):
            p + p.scale(1, power=1)
        with pytest.raises(ParameterError):
            p - p.d_alpha()

    def test_zero_adds_to_any_grade(self):
        p = AlphaPoly(HALF, (1, 2), grade=3)
        z = AlphaPoly.zero(HALF)
        assert p + z == p and z + p == p
        assert z.scale(5, power=2) == z
        assert p - p == z

    @given(orders, coeff_lists, st.integers(-3, 3))
    def test_derivative_raises_grade(self, alpha, cs, g):
        p = AlphaPoly(alpha, tuple(cs), grade=g)
        if p.degree >= 1:
            assert p.d_alpha().grade == g + 1

    @given(orders, coeff_lists, coeff_lists, st.integers(-3, 3), st.integers(-3, 3))
    def test_product_adds_grades(self, alpha, cs, ds, g, h):
        p = AlphaPoly(alpha, tuple(cs), grade=g)
        q = AlphaPoly(alpha, tuple(ds), grade=h)
        if not (p.is_zero or q.is_zero):
            assert (p * q).grade == g + h
            assert p.scale(2, power=h).grade == g + h

    def test_grade_in_equality_and_hash(self):
        p = AlphaPoly(HALF, (1, 2))
        assert p != p.scale(1, power=1)
        assert p.scale(1, power=1).scale(1, power=-1) == p
        assert hash(p.scale(1, power=2)) == hash(AlphaPoly(HALF, (1, 2), grade=2))

    def test_rational_views_reject_grade(self):
        p = AlphaPoly(HALF, (1, 2), grade=1)
        with pytest.raises(ParameterError):
            p.rational_coeffs()
        with pytest.raises(ParameterError):
            p.coefficient_sum()

    def test_graded_str(self):
        assert str(AlphaPoly(HALF, (0, 9), grade=2)) == "(9*a^2) x^a"
        assert str(AlphaPoly(HALF, (-1, 0, 1), grade=1)) == "(a) x^2a + (-a)"
        assert str(AlphaPoly(HALF, (Fraction(3, 2),), grade=-1)) == "(3/2*a^-1)"

    def test_graded_evaluate(self):
        p = AlphaPoly(Fraction(1), (1, 3), grade=5)
        assert p.evaluate(2.0) == 7.0
        assert AlphaPoly(HALF, (0, 6), grade=2).evaluate(0.25) == 0.75


# ---------------------------------------------------------------------------
# AlphaPoly structure


class TestAlphaPolyStructure:
    def test_trailing_zeros_trim(self):
        p = AlphaPoly(HALF, (Fraction(1), Fraction(0)))
        assert len(p.coeffs) == 1
        assert p.degree == 0

    def test_zero(self):
        z = AlphaPoly.zero(HALF)
        assert z.coeffs == ()
        assert z.degree == -1
        assert z.is_zero
        assert str(z) == "0"

    def test_monomial_str(self):
        assert str(AlphaPoly.monomial(HALF, 2, Fraction(3, 2))) == "3/2 x^2a"
        assert str(AlphaPoly.monomial(HALF, 1)) == "x^a"
        assert str(AlphaPoly.monomial(HALF, 0, 7)) == "7"

    def test_str_signs(self):
        p = AlphaPoly(HALF, (Fraction(-3), Fraction(0), Fraction(24)))
        assert str(p) == "24 x^2a - 3"

    def test_order_validation(self):
        with pytest.raises(ParameterError):
            AlphaPoly.monomial(Fraction(0), 1)
        with pytest.raises(ParameterError):
            AlphaPoly.monomial(Fraction(3, 2), 1)
        with pytest.raises(ParameterError):
            AlphaPoly.monomial(Fraction(-1, 2), 1)

    def test_mixed_orders_rejected(self):
        with pytest.raises(ParameterError):
            AlphaPoly.monomial(HALF, 1) + AlphaPoly.monomial(Fraction(3, 4), 1)

    def test_eq_and_hash(self):
        p = AlphaPoly(HALF, (Fraction(1), Fraction(2)))
        q = AlphaPoly(HALF, (Fraction(1), Fraction(2), Fraction(0)))
        assert p == q
        assert hash(p) == hash(q)

    def test_pow(self):
        p = AlphaPoly(HALF, (Fraction(1), Fraction(1)))
        assert (p ** 2).rational_coeffs() == (Fraction(1), Fraction(2), Fraction(1))
        assert (p ** 0) == AlphaPoly.constant(HALF, 1)
        with pytest.raises(ParameterError):
            p ** -1


# ---------------------------------------------------------------------------
# derivative


class TestDerivative:
    def test_basis_action(self):
        # x^(3a) goes to 3a x^(2a)
        p = AlphaPoly.monomial(HALF, 3)
        expected = AlphaPoly(HALF, (0, 0, 3), grade=1)
        assert p.d_alpha() == expected

    def test_constant_dies(self):
        assert AlphaPoly.constant(HALF, 5).d_alpha().is_zero

    @given(orders, coeff_lists, coeff_lists)
    def test_product_rule(self, alpha, cs, ds):
        p = AlphaPoly(alpha, tuple(cs))
        q = AlphaPoly(alpha, tuple(ds))
        assert (p * q).d_alpha() == p.d_alpha() * q + p * q.d_alpha()

    @given(orders, coeff_lists, coeff_lists, rationals)
    def test_linearity(self, alpha, cs, ds, c):
        p = AlphaPoly(alpha, tuple(cs))
        q = AlphaPoly(alpha, tuple(ds))
        assert (p + q).d_alpha() == p.d_alpha() + q.d_alpha()
        assert p.scale(c).d_alpha() == p.d_alpha().scale(c)


# ---------------------------------------------------------------------------
# evaluation and the signed-power convention


class TestEvaluate:
    def test_frozen_value(self):
        # 6 x^a at x = 0.5, order 1/2
        p = AlphaPoly.monomial(HALF, 1, 6)
        assert p.evaluate(0.5) == 4.242640687119286

    def test_signed_power_negative_axis(self):
        p = AlphaPoly.monomial(HALF, 1, 6)
        assert p.evaluate(-0.5) == -p.evaluate(0.5)

    def test_call_alias(self):
        p = AlphaPoly.monomial(Fraction(1), 2, 3)
        assert p(2.0) == 12.0

    @given(orders, coeff_lists, st.floats(0.01, 1.0))
    def test_even_parity_is_exact(self, alpha, cs, x):
        coeffs = []
        for c in cs:
            coeffs.extend([c, Fraction(0)])
        p = AlphaPoly(alpha, tuple(coeffs))
        assert p.evaluate(-x) == p.evaluate(x)

    @given(orders, coeff_lists, st.floats(0.01, 1.0))
    def test_odd_parity_is_exact(self, alpha, cs, x):
        coeffs = [Fraction(0)]
        for c in cs:
            coeffs.extend([c, Fraction(0)])
        p = AlphaPoly(alpha, tuple(coeffs))
        assert p.evaluate(-x) == -p.evaluate(x)

    @given(coeff_lists, st.fractions(min_value=-1, max_value=1, max_denominator=16))
    def test_order_one_matches_exact_horner(self, cs, x):
        p = AlphaPoly(Fraction(1), tuple(cs))
        exact = Fraction(0)
        for c in reversed(cs):
            exact = exact * x + c
        tol = 1e-13 * (1.0 + float(sum(abs(c) for c in cs)))
        assert abs(p.evaluate(float(x)) - float(exact)) <= tol

    def test_coefficient_sum(self):
        p = AlphaPoly(HALF, (Fraction(-3), Fraction(0), Fraction(24)))
        assert p.coefficient_sum() == Fraction(21)


# ---------------------------------------------------------------------------
# gamma helpers


class TestPochhammer:
    def test_frozen(self):
        assert pochhammer(Fraction(5, 2), 3) == Fraction(315, 8)
        assert pochhammer(Fraction(7, 3), 0) == 1
        assert pochhammer(-2, 3) == 0

    def test_validation(self):
        with pytest.raises(ParameterError):
            pochhammer(Fraction(1), -1)

    @given(rationals, st.integers(0, 8))
    def test_recurrence(self, x, m):
        assert pochhammer(x, m + 1) == pochhammer(x, m) * (x + m)


class TestGammaQuotient:
    def test_forward(self):
        assert gamma_quotient(Fraction(7, 2), Fraction(3, 2)) == Fraction(15, 4)

    def test_backward(self):
        assert gamma_quotient(Fraction(3, 2), Fraction(7, 2)) == Fraction(4, 15)

    def test_pole_ratio_continues(self):
        # Gamma(-1)/Gamma(-3) = (-3)(-2) under analytic continuation
        assert gamma_quotient(Fraction(-1), Fraction(-3)) == 6

    def test_denominator_pole_gives_zero(self):
        assert gamma_quotient(Fraction(1), Fraction(-2)) == 0

    def test_numerator_pole_raises(self):
        with pytest.raises(DomainError):
            gamma_quotient(Fraction(-2), Fraction(1))

    def test_non_integer_offset_rejected(self):
        with pytest.raises(ParameterError):
            gamma_quotient(Fraction(1, 2), Fraction(1, 3))

    @given(st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=8),
           st.integers(0, 6))
    def test_matches_pochhammer(self, a, k):
        assert gamma_quotient(a + k, a) == pochhammer(a, k)


class TestGammaRatio:
    def test_reduces_bucketwise(self):
        ratio = GammaRatio.of((Fraction(7, 2), Fraction(3)),
                              (Fraction(3, 2), Fraction(5)))
        assert ratio.to_fraction() == Fraction(5, 16)

    def test_unbalanced_buckets_rejected(self):
        with pytest.raises(ParameterError):
            GammaRatio.of((Fraction(1, 2),), (Fraction(1, 3),)).to_fraction()

    @given(st.fractions(min_value=Fraction(1, 8), max_value=3, max_denominator=8),
           st.integers(0, 5), st.integers(0, 5))
    def test_agrees_with_quotient_product(self, a, j, k):
        ratio = GammaRatio.of((a + j, a + k), (a, a + j + k)).to_fraction()
        direct = gamma_quotient(a + j, a) * gamma_quotient(a + k, a + j + k)
        assert ratio == direct

