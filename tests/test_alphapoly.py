"""Exact arithmetic layer: graded polynomials, the rising factorial."""
import math
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congeg.alphapoly import AlphaPoly, ParameterError, _rising, pochhammer

HALF = Fraction(1, 2)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)
orders = st.sampled_from([Fraction(1, 4), HALF, Fraction(3, 4), Fraction(1)])
coeff_lists = st.lists(rationals, max_size=6)


# ---------------------------------------------------------------------------
# grade: the power of the order symbol on the whole polynomial


class TestGrade:
    def test_mixed_grade_addition_rejected(self):
        p = AlphaPoly((0, 1))
        with pytest.raises(ParameterError):
            p + p.scale(1, power=1)
        with pytest.raises(ParameterError):
            p - p.d_alpha()

    def test_zero_adds_to_any_grade(self):
        p = AlphaPoly((1, 2), grade=3)
        z = AlphaPoly.zero()
        assert p + z == p and z + p == p
        assert z.scale(5, power=2) == z
        assert p - p == z

    @given(coeff_lists, st.integers(-3, 3))
    def test_derivative_raises_grade(self, cs, g):
        p = AlphaPoly(tuple(cs), grade=g)
        if p.degree >= 1:
            assert p.d_alpha().grade == g + 1

    @given(coeff_lists, coeff_lists, st.integers(-3, 3), st.integers(-3, 3))
    def test_product_adds_grades(self, cs, ds, g, h):
        p = AlphaPoly(tuple(cs), grade=g)
        q = AlphaPoly(tuple(ds), grade=h)
        if not (p.is_zero or q.is_zero):
            assert (p * q).grade == g + h
            assert p.scale(2, power=h).grade == g + h

    def test_grade_in_equality_and_hash(self):
        p = AlphaPoly((1, 2))
        assert p != p.scale(1, power=1)
        assert p.scale(1, power=1).scale(1, power=-1) == p
        assert hash(p.scale(1, power=2)) == hash(AlphaPoly((1, 2), grade=2))

    def test_rational_views_reject_grade(self):
        p = AlphaPoly((1, 2), grade=1)
        with pytest.raises(ParameterError):
            p.rational_coeffs()
        with pytest.raises(ParameterError):
            p.coefficient_sum()

    def test_graded_str(self):
        assert str(AlphaPoly((0, 9), grade=2)) == "(9*a^2) x^a"
        assert str(AlphaPoly((-1, 0, 1), grade=1)) == "(a) x^2a + (-a)"
        assert str(AlphaPoly((Fraction(3, 2),), grade=-1)) == "(3/2*a^-1)"

    def test_graded_evaluate(self):
        p = AlphaPoly((1, 3), grade=5)
        assert p.evaluate(2.0, 1) == 7.0
        assert AlphaPoly((0, 6), grade=2).evaluate(0.25, HALF) == 0.75

    # the exact sweeps check each identity once and claim it for every order:
    # no result of exact arithmetic holds an order it could depend on
    @given(coeff_lists, coeff_lists, rationals,
           st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 3), st.integers(0, 3))
    def test_exact_arithmetic_never_reads_the_order(self, cs, ds, c, g, power, k, e):
        p, q = AlphaPoly(cs, grade=g), AlphaPoly(ds, grade=g)
        for r in (p + q, p - q, p * q, p ** e, p.scale(c, power), p.shift(k), p.d_alpha()):
            assert set(vars(r)) == {"nums", "den", "grade"}


# ---------------------------------------------------------------------------
# results of arithmetic skip the public constructor's checks, so they must
# already be what it would build


def assert_normalized(p):
    assert all(type(c) is Fraction for c in p.coeffs)
    assert not p.coeffs or p.coeffs[-1] != 0
    assert p.coeffs or p.grade == 0
    assert AlphaPoly(p.coeffs, p.grade) == p
    # the integer storage behind the view is in its one canonical form
    assert p.den > 0 and type(p.den) is int
    assert all(type(v) is int for v in p.nums)
    assert math.gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0
    if p.is_zero:
        assert (p.nums, p.den, p.grade) == ((), 1, 0)
    assert p.coeffs == tuple(Fraction(v, p.den) for v in p.nums)


class TestArithmeticResults:
    @given(coeff_lists, coeff_lists, rationals, st.integers(-2, 2),
           st.integers(0, 3))
    def test_results_are_normalized(self, cs, ds, r, g, k):
        p = AlphaPoly(tuple(cs), grade=g)
        q = AlphaPoly(tuple(ds), grade=g)
        for result in (p, p + q, p - q, -p, p * q, p * r, r * p, p.scale(r, power=2),
                       p.shift(k), p.d_alpha(), p - p, p ** 2, p.scale(Fraction(1, 3))):
            assert_normalized(result)

    def test_cancelled_top_terms_are_trimmed(self):
        p = AlphaPoly((1, 2, 3), grade=1)
        q = AlphaPoly((0, 0, 3), grade=1)
        assert (p - q).coeffs == (Fraction(1), Fraction(2))
        assert (p - p).coeffs == () and (p - p).grade == 0
        assert p.scale(0, power=2).grade == 0
        assert AlphaPoly.constant(5).d_alpha().grade == 0

    def test_shift_pads_with_fractions(self):
        p = AlphaPoly((Fraction(1, 3),), grade=2).shift(3)
        assert p.coeffs == (0, 0, 0, Fraction(1, 3)) and p.grade == 2
        assert_normalized(p)

    def test_mixed_grade_sum_still_raises(self):
        p = AlphaPoly((1, 2), grade=1)
        with pytest.raises(ParameterError):
            p + AlphaPoly((1,), grade=2)
        with pytest.raises(ParameterError):
            p - p.shift(1).d_alpha()

    def test_non_integer_power_raises(self):
        for p in (AlphaPoly((1, 2)), AlphaPoly.zero()):
            with pytest.raises(ParameterError):
                p.scale(3, power=Fraction(1, 2))
            with pytest.raises(ParameterError):
                p.scale(3, power=1.0)

    def test_public_constructor_still_validates(self):
        # an order outside (0, 1] is covered by test_order_validation
        with pytest.raises(ParameterError):
            AlphaPoly((1, 0.5))
        with pytest.raises(ParameterError):
            AlphaPoly((1,), grade=Fraction(1, 2))


# ---------------------------------------------------------------------------
# integer storage: every result equals a per-coefficient Fraction reference
# (canonical form is checked by assert_normalized above)


def assert_matches(result, coeffs, grade):
    """`result` holds the Fraction reference `coeffs`, trimmed, at `grade`."""
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    assert result.coeffs == tuple(coeffs)
    assert result.grade == (grade if coeffs else 0)


def ref_mul(cs, ds):
    if not (cs and ds):
        return []
    out = [Fraction(0)] * (len(cs) + len(ds) - 1)
    for i, a in enumerate(cs):
        for j, b in enumerate(ds):
            out[i + j] += a * b
    return out


class TestIntegerStorage:
    @given(coeff_lists, coeff_lists, st.integers(-2, 2))
    def test_sum_and_difference(self, cs, ds, g):
        p, q = AlphaPoly(tuple(cs), g), AlphaPoly(tuple(ds), g)
        pairs = list(zip_longest(p.coeffs, q.coeffs, fillvalue=Fraction(0)))
        assert_matches(p + q, [a + b for a, b in pairs], g)
        assert_matches(p - q, [a - b for a, b in pairs], g)
        assert_matches(-p, [-a for a in p.coeffs], g)

    @given(coeff_lists, coeff_lists, st.integers(-2, 2), st.integers(-2, 2))
    def test_product(self, cs, ds, g, h):
        p, q = AlphaPoly(tuple(cs), g), AlphaPoly(tuple(ds), h)
        assert_matches(p * q, ref_mul(p.coeffs, q.coeffs), g + h)

    @given(st.lists(rationals, max_size=4), st.integers(0, 4))
    @settings(deadline=None)
    def test_power(self, cs, e):
        p = AlphaPoly(tuple(cs))
        want = [Fraction(1)]
        for _ in range(e):
            want = ref_mul(want, p.coeffs)
        assert_matches(p ** e, want, 0)

    @given(coeff_lists, rationals, st.integers(-2, 2), st.integers(0, 4))
    def test_scale_shift_and_derivative(self, cs, r, power, k):
        p = AlphaPoly(tuple(cs), 1)
        assert_matches(p.scale(r, power), [c * r for c in p.coeffs], 1 + power)
        assert_matches(p * r, [c * r for c in p.coeffs], 1)
        assert r * p == p * r
        assert_matches(p.shift(k), [Fraction(0)] * k + list(p.coeffs), 1)
        assert_matches(p.d_alpha(), [k * c for k, c in enumerate(p.coeffs) if k], 2)

    @given(coeff_lists, st.integers(1, 50))
    def test_equal_polynomials_hash_equal(self, cs, m):
        p = AlphaPoly(tuple(cs))
        # the same polynomial by a detour: scaled up and back down, and rebuilt
        # from its coefficients with an explicit trailing zero
        detour = (p.scale(m) + AlphaPoly.zero()).scale(Fraction(1, m))
        rebuilt = AlphaPoly(p.coeffs + (Fraction(0),))
        assert p == detour == rebuilt
        assert hash(p) == hash(detour) == hash(rebuilt)
        assert (p.nums, p.den) == (detour.nums, detour.den)

    def test_zero_forms(self):
        for z in (AlphaPoly.zero(), AlphaPoly((0, 0), grade=3),
                  AlphaPoly((1, 2), grade=2).scale(0, power=1),
                  AlphaPoly.constant(7).d_alpha()):
            assert (z.nums, z.den, z.grade) == ((), 1, 0)
            assert z == AlphaPoly.zero() and hash(z) == hash(AlphaPoly.zero())

    def test_storage_example(self):
        p = AlphaPoly((Fraction(1, 6), Fraction(-3, 4), 2))
        assert (p.nums, p.den) == ((2, -9, 24), 12)
        assert p.coeffs == (Fraction(1, 6), Fraction(-3, 4), Fraction(2))

    def test_immutable(self):
        p = AlphaPoly((1, 2))
        with pytest.raises(AttributeError):
            p.den = 3
        with pytest.raises(AttributeError):
            del p.nums


# ---------------------------------------------------------------------------
# AlphaPoly structure


class TestAlphaPolyStructure:
    def test_trailing_zeros_trim(self):
        p = AlphaPoly((Fraction(1), Fraction(0)))
        assert len(p.coeffs) == 1
        assert p.degree == 0

    def test_zero(self):
        z = AlphaPoly.zero()
        assert z.coeffs == ()
        assert z.degree == -1
        assert z.is_zero
        assert str(z) == "0"

    def test_monomial_str(self):
        assert str(AlphaPoly((0, 0, Fraction(3, 2)))) == "3/2 x^2a"
        assert str(AlphaPoly((0, 1))) == "x^a"
        assert str(AlphaPoly((7,))) == "7"

    def test_str_signs(self):
        p = AlphaPoly((Fraction(-3), Fraction(0), Fraction(24)))
        assert str(p) == "24 x^2a - 3"

    def test_order_validation(self):
        p = AlphaPoly((0, 1))
        with pytest.raises(ParameterError):
            p.evaluate(0.5, Fraction(0))
        with pytest.raises(ParameterError):
            p.evaluate(0.5, Fraction(3, 2))
        with pytest.raises(ParameterError):
            p.evaluate(0.5, Fraction(-1, 2))

    def test_has_no_order(self):
        p = AlphaPoly((1, 2))
        with pytest.raises(AttributeError):
            p.alpha
        assert repr(p) == "AlphaPoly(2 x^a + 1)"

    def test_eq_and_hash(self):
        p = AlphaPoly((Fraction(1), Fraction(2)))
        q = AlphaPoly((Fraction(1), Fraction(2), Fraction(0)))
        assert p == q
        assert hash(p) == hash(q)

    def test_pow(self):
        p = AlphaPoly((Fraction(1), Fraction(1)))
        assert (p ** 2).rational_coeffs() == (Fraction(1), Fraction(2), Fraction(1))
        assert (p ** 0) == AlphaPoly.constant(1)
        with pytest.raises(ParameterError):
            p ** -1


# ---------------------------------------------------------------------------
# derivative


class TestDerivative:
    def test_basis_action(self):
        # x^(3a) goes to 3a x^(2a)
        p = AlphaPoly((0, 0, 0, 1))
        expected = AlphaPoly((0, 0, 3), grade=1)
        assert p.d_alpha() == expected

    def test_constant_dies(self):
        assert AlphaPoly.constant(5).d_alpha().is_zero

    @given(coeff_lists, coeff_lists)
    def test_product_rule(self, cs, ds):
        p = AlphaPoly(tuple(cs))
        q = AlphaPoly(tuple(ds))
        assert (p * q).d_alpha() == p.d_alpha() * q + p * q.d_alpha()

    @given(coeff_lists, coeff_lists, rationals)
    def test_linearity(self, cs, ds, c):
        p = AlphaPoly(tuple(cs))
        q = AlphaPoly(tuple(ds))
        assert (p + q).d_alpha() == p.d_alpha() + q.d_alpha()
        assert p.scale(c).d_alpha() == p.d_alpha().scale(c)


# ---------------------------------------------------------------------------
# evaluation and the signed-power convention


class TestEvaluate:
    def test_frozen_value(self):
        # 6 x^a at x = 0.5, order 1/2
        p = AlphaPoly((0, 6))
        assert p.evaluate(0.5, HALF) == 4.242640687119286

    def test_signed_power_negative_axis(self):
        p = AlphaPoly((0, 6))
        assert p.evaluate(-0.5, HALF) == -p.evaluate(0.5, HALF)

    @pytest.mark.parametrize("order", [0, 1.5, math.nan, True])
    def test_refuses_orders_outside_the_range(self, order):
        for p in (AlphaPoly((0, 0, 3)), AlphaPoly.zero()):
            with pytest.raises(ParameterError, match="order must"):
                p.evaluate(0.5, order)

    @pytest.mark.parametrize("order", ["x", None, 1j], ids=repr)
    def test_values_refuse_an_order_that_is_not_a_real_number(self, order):
        with pytest.raises(ParameterError, match="^order must be a real number, got "):
            AlphaPoly((0, 6)).values([0.5], order)

    @given(orders, coeff_lists, st.floats(0.01, 1.0))
    def test_even_parity_is_exact(self, alpha, cs, x):
        coeffs = []
        for c in cs:
            coeffs.extend([c, Fraction(0)])
        p = AlphaPoly(tuple(coeffs))
        assert p.evaluate(-x, alpha) == p.evaluate(x, alpha)

    @given(orders, coeff_lists, st.floats(0.01, 1.0))
    def test_odd_parity_is_exact(self, alpha, cs, x):
        coeffs = [Fraction(0)]
        for c in cs:
            coeffs.extend([c, Fraction(0)])
        p = AlphaPoly(tuple(coeffs))
        assert p.evaluate(-x, alpha) == -p.evaluate(x, alpha)

    @given(coeff_lists, st.fractions(min_value=-1, max_value=1, max_denominator=16))
    def test_order_one_matches_exact_horner(self, cs, x):
        p = AlphaPoly(tuple(cs))
        exact = Fraction(0)
        for c in reversed(cs):
            exact = exact * x + c
        tol = 1e-13 * (1.0 + float(sum(abs(c) for c in cs)))
        assert abs(p.evaluate(float(x), 1) - float(exact)) <= tol

    def test_coefficient_sum(self):
        p = AlphaPoly((Fraction(-3), Fraction(0), Fraction(24)))
        assert p.coefficient_sum() == Fraction(21)

    @given(orders, coeff_lists, st.integers(-3, 3),
           st.floats(-1.0, 1.0, allow_nan=False))
    def test_bit_identical_to_fraction_horner(self, alpha, cs, g, x):
        # the integer storage rounds each coefficient as float(Fraction) does;
        # a nonzero grade multiplies the Horner sum by a**grade once
        p = AlphaPoly(tuple(cs), g)
        a = float(alpha)
        u = math.copysign(abs(x) ** a, x)
        acc = 0.0
        for c in reversed(p.coeffs):
            acc = acc * u + float(c)
        if p.grade:
            acc *= a ** p.grade
        assert p.evaluate(x, alpha) == acc

    def test_bit_identical_at_high_degree(self):
        # huge numerators over a huge common denominator still round once
        p = AlphaPoly(tuple(Fraction(1, 3 ** k + 1) * (-7) ** k for k in range(80)))
        u = 0.37 ** (1 / 3)
        acc = 0.0
        for c in reversed(p.coeffs):
            acc = acc * u + float(c)
        assert p.evaluate(0.37, Fraction(1, 3)) == acc


# ---------------------------------------------------------------------------
# rising factorial


class TestPochhammer:
    def test_frozen(self):
        assert pochhammer(Fraction(5, 2), 3) == Fraction(315, 8)
        assert pochhammer(Fraction(7, 3), 0) == 1
        assert pochhammer(-2, 3) == 0
        assert _rising(7, 3, 0) == 1
        assert _rising(-2, 1, 3) == 0
        assert _rising(11, 14, 3) == 11 * 25 * 39  # the Rodrigues start at c = -3/14

    def test_validation(self):
        with pytest.raises(ParameterError):
            pochhammer(Fraction(1), -1)
        for m in (True, False, 1.0):
            with pytest.raises(ParameterError):
                pochhammer(1, m)

    @given(rationals, st.integers(0, 12), st.integers(-40, 40), st.integers(1, 20))
    def test_matches_fraction_product(self, x, m, start, step):
        want, want_int = Fraction(1), 1
        for i in range(m):
            want *= x + i
            want_int *= start + step * i
        got = pochhammer(x, m)
        assert type(got) is Fraction and got == want
        assert _rising(start, step, m) == want_int

    @given(rationals, st.integers(0, 8))
    def test_recurrence(self, x, m):
        assert pochhammer(x, m + 1) == pochhammer(x, m) * (x + m)


class TestBoolRejected:
    """A bool is an int to Python, but True must not pass as the exact 1."""

    def test_rational(self):
        p = AlphaPoly((1, 2))
        for call in (lambda: p.scale(True), lambda: pochhammer(True, 2)):
            with pytest.raises(ParameterError, match="exact rational"):
                call()

    @pytest.mark.parametrize("flag", [True, False])
    def test_order(self, flag):
        with pytest.raises(ParameterError, match="order must be a real number"):
            AlphaPoly((1,)).evaluate(0.5, flag)

    @pytest.mark.parametrize("flag", [True, False])
    def test_coefficient(self, flag):
        with pytest.raises(ParameterError, match="is not exact"):
            AlphaPoly((1, flag))
        with pytest.raises(ParameterError, match="is not exact"):
            AlphaPoly.constant(flag)

    @pytest.mark.parametrize("flag", [True, False])
    def test_grade(self, flag):
        with pytest.raises(ParameterError, match="grade must be an integer"):
            AlphaPoly((1, 2), grade=flag)

    @pytest.mark.parametrize("flag", [True, False])
    def test_scale_power(self, flag):
        for p in (AlphaPoly((1, 2), grade=1), AlphaPoly.zero()):
            with pytest.raises(ParameterError, match="power must be an integer"):
                p.scale(2, power=flag)
