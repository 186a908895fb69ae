"""Float evaluation: which evaluator each polynomial and each Gegenbauer
member takes, each one's error against exact rational values at the same
float u, the working range and the exit codes of `eval`."""
import math
import random
import tracemalloc
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import congeg.gegenbauer as gegenbauer
from congeg import AlphaPoly, GegenbauerSpec, chebyshev_t, from_recurrence, from_series
from congeg.alphapoly import _COLUMN_POINTS, AccuracyError, ParameterError
from congeg.cli import main

EPS = 2.0 ** -53
WEIGHTS = (Fraction(1, 2), Fraction(1), Fraction(3), Fraction(343, 11), Fraction(2, 7))
# the highest degree at which each weight keeps float Horner
HORNER_UP_TO = {Fraction(1, 2): 8, Fraction(1): 9, Fraction(3): 11, Fraction(343, 11): 23}
_RNG = random.Random(16)
POINTS = (1.0, -1.0, 0.0, 5e-324, -5e-324) + tuple(_RNG.uniform(-1.0, 1.0) for _ in range(3))


def _exact(poly: AlphaPoly, u: float) -> tuple[int, int]:
    """sum (nums[k] / den) u^k at the float u, exactly, as (numerator,
    denominator): with u = num / 2^e, Horner on sum nums[k] num^k 2^(e (n-k))
    over den 2^(e n).  Left unreduced, since a gcd of these integers costs
    more than the rest of a check."""
    num, den = u.as_integer_ratio()
    e = den.bit_length() - 1
    acc = 0
    for j, c in enumerate(reversed(poly.nums)):
        acc = acc * num + (c << (e * j))
    return acc, poly.den << (e * poly.degree)


def _error(value: float, poly: AlphaPoly, u: float) -> float:
    """|value - poly(u)| against the exact value, correctly rounded."""
    num, den = _exact(poly, u)
    vn, vd = value.as_integer_ratio()
    return abs(vn * den - num * vd) / (vd * den)


def _correctly_rounded(poly: AlphaPoly, u: float) -> float:
    """poly(u) rounded once, by one int / int."""
    num, den = _exact(poly, u)
    return num / den


def _dlmf_coefficients(n: int, lam: Fraction, r: list) -> list:
    """The Chebyshev coefficients b_(n-2k), k <= n/2, of C_n at weight lam,
    exactly, from r[k] = (lam)_k / k! (r at least n + 1 long).  DLMF
    18.5.11: C_n(cos t) = sum_k r_k r_(n-k) cos((n-2k) t), so
    b_(n-2k) = 2 r_k r_(n-k) for n - 2k > 0 and the middle term counts
    once."""
    return [r[k] * r[n - k] * (1 if 2 * k == n else 2) for k in range(n // 2 + 1)]


def _pochhammer_ratios(lam: Fraction, count: int) -> list:
    """(lam)_k / k! for k < count."""
    r = [Fraction(1)]
    for k in range(count - 1):
        r.append(r[-1] * (lam + k) / (k + 1))
    return r


class TestChoice:
    @pytest.mark.parametrize("lam", HORNER_UP_TO, ids=str)
    def test_horner_kept_up_to_the_pinned_degree(self, lam):
        p, q = lam.as_integer_ratio()
        for n in range(65):
            horner = from_series(GegenbauerSpec(n, lam))._horner is not None
            assert horner == (n <= HORNER_UP_TO[lam]), n
            assert (gegenbauer._member_form(n, p, q)[0] is None) == horner, n

    @pytest.mark.parametrize("n", range(1, 6))
    def test_golden_curves_stay_on_horner(self, n):
        # the golden CSVs are weight 3, degrees 1..5
        assert from_series(GegenbauerSpec(n, 3))._horner is not None

    def test_chebyshev_coefficients_of_a_member_are_nonnegative(self):
        # DLMF 18.5: so sum |b_j| = C_n(1), and one parity part
        odd, coeffs, bound, _ = gegenbauer._member_form(40, 2, 7)
        assert odd == 0 and len(coeffs) == 21
        assert all(b > 0 for b in coeffs)
        l1 = float(from_series(GegenbauerSpec(40, Fraction(2, 7))).coefficient_sum())
        # m = 40 // 2 = 20
        assert bound == pytest.approx((5.5 * 20 * 20 + 7.5 * 20 + 6) * EPS * l1, rel=1e-12)


@pytest.fixture
def fresh_member_forms():
    gegenbauer._member_form.cache_clear()
    yield
    gegenbauer._member_form.cache_clear()


@pytest.fixture
def clenshaw_only(monkeypatch, fresh_member_forms):
    """Every member takes the Clenshaw sum, Horner's range included: with
    Horner's test failing, `_member_form` builds no series."""
    monkeypatch.setattr(gegenbauer, "_fits_horner", lambda *args: False)


MEMBER_WEIGHTS = (Fraction(1, 2), Fraction(1), Fraction(3), Fraction(2, 7), Fraction(675, 22))


class TestMemberForm:
    """`gegenbauer._member_form`: the series' own Horner coefficients below
    Horner's bound, otherwise the closed form of DLMF 18.5.11, each
    coefficient rounded once as it is carried."""

    @pytest.mark.parametrize("lam", MEMBER_WEIGHTS, ids=str)
    def test_same_choice_and_floats_as_the_series(self, fresh_member_forms, lam):
        p, q = lam.as_integer_ratio()
        for n in range(301):
            poly = gegenbauer._series_coeffs(n, p, q)
            odd, coeffs, bound, _ = gegenbauer._member_form(n, p, q)
            assert (odd is None) == (poly._horner is not None), n
            if odd is None:
                assert coeffs == poly._horner, n
            else:
                # at u = 1 the series' exact value is cheap
                (value,) = gegenbauer._member_values(n, p, q, [1.0], 1.0)
                assert abs(value - poly.values([1.0], 1.0)[0]) <= bound, n

    @pytest.mark.parametrize("lam", MEMBER_WEIGHTS, ids=str)
    def test_closed_form_equals_the_conversion_at_every_degree(self, clenshaw_only, lam):
        # each carried coefficient is the exact b_j of `TestConversionExact`
        # rounded once, and the bound and scale are taken from the exact
        # sum of the b_j
        p, q = lam.as_integer_ratio()
        r = _pochhammer_ratios(lam, 301)
        for n in range(301):
            exact = _dlmf_coefficients(n, lam, r)
            total = sum(exact)
            m = n // 2
            assert gegenbauer._member_form(n, p, q) == (
                n % 2, tuple(map(float, exact)),
                (5.5 * m * m + 7.5 * m + 6) * 2.0 ** -53 * float(total),
                max(1.0, float(total))), n

    @pytest.mark.parametrize("argv", [("eval", "--n", "64", "--x", "-1", "0.3", "1"),
                                      ("plot-data", "--n", "200", "--lambda", "2/7")])
    def test_no_series_past_horners_range(self, monkeypatch, capsys, fresh_member_forms, argv):
        assert main(list(argv)) == 0
        expected = capsys.readouterr()
        gegenbauer._member_form.cache_clear()
        build = gegenbauer._series_coeffs

        def refuse(n, p, q):
            if n > 40:
                raise AssertionError(f"series of degree {n} built")
            return build(n, p, q)

        monkeypatch.setattr(gegenbauer, "_series_coeffs", refuse)
        assert main(list(argv)) == 0
        assert capsys.readouterr() == expected

    def test_one_pass_keeps_no_list_of_big_integers(self):
        # the n/2 + 1 numerators of degree 4000 would take megabytes
        tracemalloc.start()
        try:
            gegenbauer._member_form.__wrapped__(4000, 2, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestConversionExact:
    """Converted back to the power basis through `chebyshev_t`, the
    Chebyshev coefficients of DLMF 18.5.11 give each member's series
    exactly: the oracle behind `_member_form`'s coefficients."""

    @pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(1), Fraction(5, 2),
                                     Fraction(3), Fraction(2, 7), Fraction(675, 22)],
                             ids=str)
    def test_members_match_the_closed_form(self, lam):
        p, q = lam.as_integer_ratio()
        r = _pochhammer_ratios(lam, 121)
        for n in range(121):
            converted = AlphaPoly.zero()
            for k, b in enumerate(_dlmf_coefficients(n, lam, r)):
                converted += chebyshev_t(n - 2 * k).scale(b)
            assert converted == gegenbauer._series_coeffs(n, p, q), n


class TestChebyshevAgainstExact:
    """Every error of a member's Clenshaw sum is within the stated bound
    (5.5 m^2 + 7.5 m + 6) eps * sum |b_j|, m = floor(n/2)."""

    @pytest.mark.parametrize("lam", WEIGHTS, ids=str)
    def test_within_bound_up_to_degree_200(self, clenshaw_only, lam):
        p, q = lam.as_integer_ratio()
        worst = 0.0
        for n in range(201):
            poly = from_series(GegenbauerSpec(n, lam))
            _, _, bound, scale = gegenbauer._member_form(n, p, q)
            for u, value in zip(POINTS, gegenbauer._member_values(n, p, q, POINTS, 1.0)):
                err = _error(value, poly, u)
                assert err <= bound, (n, u, err, bound)
                worst = max(worst, err / scale)
        # far inside the bound, which reaches about 6.2e-12 of scale at n = 200
        assert worst < 1e-13

    @pytest.mark.parametrize("alpha", [Fraction(1, 3), Fraction(7, 10)], ids=str)
    def test_fractional_order_uses_the_same_u(self, alpha):
        poly = from_series(GegenbauerSpec(40, Fraction(1, 2)))
        a = float(alpha)
        _, _, bound, _ = gegenbauer._member_form(40, 1, 2)
        for x, value in zip(POINTS, gegenbauer._member_values(40, 1, 2, POINTS, a)):
            u = math.copysign(abs(x) ** a, x)
            assert _error(value, poly, u) <= bound

    def test_graded_polynomial_scales_by_the_order(self):
        p = from_series(GegenbauerSpec(30, 1))
        graded = p.scale(1, power=2)
        assert graded.values(POINTS, 0.5) == [v * 0.25 for v in p.values(POINTS, 0.5)]


# where the Clenshaw sum in w = 2u^2 - 1 is weakest: w at or next to +-1,
# where d phi_k / d w peaks, w = 0 at u = 2^-1/2, and u^2 lost to
# underflow or far below eps
EDGES = (1.0, -1.0, 1 - 2.0 ** -30, -(1 - 2.0 ** -30), 2.0 ** -0.5, -2.0 ** -0.5,
         1e-300, -1e-8, 1 - 1e-6, -(1 - 1e-6), 1 - 3.7e-7, 1 - 1e-9, 1 - 2.0 ** -52)


class TestClenshawEdges:
    @pytest.mark.parametrize("lam", WEIGHTS, ids=str)
    def test_members_up_to_degree_200(self, clenshaw_only, lam):
        p, q = lam.as_integer_ratio()
        for n in range(201):
            poly = from_series(GegenbauerSpec(n, lam))
            _, _, bound, _ = gegenbauer._member_form(n, p, q)
            for u, value in zip(EDGES, gegenbauer._member_values(n, p, q, EDGES, 1.0)):
                err = _error(value, poly, u)
                assert err <= bound, (n, u, err, bound)

    def test_mixed_parity_non_member(self):
        # past Horner's bound a polynomial's values are exact, correctly rounded
        p = from_series(GegenbauerSpec(200, 1)) + from_series(GegenbauerSpec(199, 1))
        assert p._horner is None
        assert p.values(EDGES, 1.0) == [_correctly_rounded(p, u) for u in EDGES]


class TestExactPath:
    """Past Horner's bound `AlphaPoly.values` gives each value exactly,
    correctly rounded, at any finite u."""

    @pytest.mark.parametrize("n", [200, 800])
    def test_sum_of_two_members_is_correctly_rounded(self, n):
        lam = Fraction(2, 7)
        p = from_series(GegenbauerSpec(n, lam)) + from_series(GegenbauerSpec(n - 1, lam))
        assert p._horner is None
        xs = (1.0, -1.0, 0.5, -0.73, 0.99, 1e-300, 1 - 2.0 ** -52, 1.05, -1.1)
        assert p.values(xs, 1.0) == [_correctly_rounded(p, x) for x in xs]
        a = 1 / 3
        us = [math.copysign(abs(x) ** a, x) for x in xs]
        assert p.values(xs, a) == [_correctly_rounded(p, u) for u in us]

    def test_no_clenshaw_refusal(self):
        # the member's Clenshaw bound fails from degree 808 at weight 1/2;
        # the polynomial's own value does not need it
        p = from_recurrence(GegenbauerSpec(808, Fraction(1, 2)))
        assert p.evaluate(0.5, 1.0) == -0.021323497670341668 == _correctly_rounded(p, 0.5)

    def test_no_coefficient_is_rounded(self):
        # Horner's and the Clenshaw sum's coefficients lie past the float range
        p = from_recurrence(GegenbauerSpec(300, 1000))
        assert p.values([0.5], 1.0) == [-9.23910960673763e+253]

    def test_odd_polynomial_at_negative_zero(self):
        # as Horner gives it: the exact value 0 rounds to +0.0
        p = from_series(GegenbauerSpec(41, Fraction(2, 7)))
        assert p._horner is None
        assert [v.hex() for v in p.values((0.0, -0.0), 1.0)] == ["0x0.0p+0", "0x0.0p+0"]

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_raises(self, x):
        with pytest.raises(ParameterError, match="not a finite number"):
            from_series(GegenbauerSpec(30, 3)).values([0.5, x], 1.0)

    @pytest.mark.parametrize("values", [
        lambda x: AlphaPoly(()).values([0.5, x], 1.0),                     # zero
        lambda x: AlphaPoly((1, 2, 3)).values([0.5, x], 1.0),              # Horner
        lambda x: gegenbauer._member_values(4, 3, 1, [0.5, x], 1.0),       # Horner, member
        lambda x: gegenbauer._member_values(30, 3, 1, [0.5, x], 1.0),      # Clenshaw
        lambda x: from_series(GegenbauerSpec(30, 3)).values([0.5, x], 0.5),  # exact
    ], ids=["zero", "horner", "member-horner", "chebyshev", "exact"])
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_every_evaluator_refuses_a_non_finite_point_alike(self, values, x):
        # the zero polynomial once returned 0.0, Horner raised AccuracyError
        # "not finite" and Clenshaw said "outside [-1, 1]" for nan; the
        # exact path named the point
        # u = x^a keeps inf, -inf and nan at order 1/2 too
        with pytest.raises(ParameterError, match=f"x\\^a = {x!r} is not a finite number"):
            values(x)


class TestHornerAgainstExact:
    @pytest.mark.parametrize("lam", WEIGHTS, ids=str)
    def test_within_gamma_bound(self, lam):
        for n in range(HORNER_UP_TO.get(lam, 8) + 1):
            p = from_series(GegenbauerSpec(n, lam))
            assert p._horner is not None
            m = 2 * n + 1
            bound = m * EPS / (1 - m * EPS) * float(sum(map(abs, p.coeffs)))
            for u, value in zip(POINTS, p.values(POINTS, 1.0)):
                assert _error(value, p, u) <= bound

    def test_values_match_evaluate(self):
        for n in (4, 30):
            p = from_series(GegenbauerSpec(n, 3))
            assert p.values(POINTS, 0.5) == [p.evaluate(x, 0.5) for x in POINTS]


def _signed_power_values(form: tuple, xs) -> list[float]:
    """A member at the points xs and order 1 through the signed power
    u = copysign(|x|^1, x) that every other order takes, then its
    `_member_form` written out: Horner, or the Clenshaw sum."""
    odd, coeffs, _, _ = form
    us = [math.copysign(abs(x) ** 1.0, x) for x in xs]
    out = []
    for u in us:
        if odd is None:
            acc = 0.0
            for c in coeffs:
                acc = acc * u + c
            out.append(acc)
            continue
        w2 = 4.0 * u * u - 2.0
        y1 = y2 = 0.0
        for c in coeffs:
            y1, y2 = c + w2 * y1 - y2, y1
        out.append(u * (y1 - y2) if odd else y1 - 0.5 * w2 * y2)
    return out


ORDER_ONE_POINTS = (1.0, -1.0, 0.0, -0.0, 5e-324, -5e-324, 1 - 2.0 ** -52,
                    -(1 - 2.0 ** -52)) + POINTS[5:]


class TestOrderOne:
    """At order 1 a member's values take u = x itself, and give what the
    signed power gave, bit for bit: -0.0 and the sign of every zero
    included."""

    @pytest.mark.parametrize("n,lam,chebyshev", [
        (4, 3, False), (5, 3, False), (40, Fraction(2, 7), True), (41, Fraction(2, 7), True)])
    def test_bit_identical_to_the_signed_power(self, n, lam, chebyshev):
        p, q = Fraction(lam).as_integer_ratio()
        form = gegenbauer._member_form(n, p, q)
        assert (form[0] is not None) == chebyshev
        got = gegenbauer._member_values(n, p, q, ORDER_ONE_POINTS, 1.0)
        assert [v.hex() for v in got] == [
            v.hex() for v in _signed_power_values(form, ORDER_ONE_POINTS)]

    def test_odd_chebyshev_member_keeps_the_sign_of_zero(self):
        # so the comparison above can see a u that lost the sign of -0.0
        values = gegenbauer._member_values(41, 2, 7, (0.0, -0.0), 1.0)
        assert [v.hex() for v in values] == ["0x0.0p+0", "-0x0.0p+0"]


class TestWorkingRange:
    def test_chebyshev_refuses_points_outside(self):
        with pytest.raises(ParameterError, match=r"outside \[-1, 1\]"):
            gegenbauer._member_values(30, 3, 1, [0.5, 1.5], 1.0)
        with pytest.raises(ParameterError, match="x\\^a = nan is not a finite number"):
            gegenbauer._member_values(30, 3, 1, [math.nan], 1.0)

    def test_horner_takes_any_finite_point(self):
        p = from_series(GegenbauerSpec(4, 3))
        num, den = _exact(p, 2.0)
        assert p.evaluate(2.0, 1.0) == num / den

    def test_bound_past_tolerance_raises(self):
        # at weight 1/2, sum |b_j| = C_n(1) = 1, so the bound is
        # (5.5 m^2 + 7.5 m + 6) eps, m = floor(n/2), which first passes
        # 1e-10 at n = 808
        first = min(n for n in range(1000)
                    if (5.5 * (n // 2) ** 2 + 7.5 * (n // 2) + 6) * EPS > 1e-10)
        assert first == 808
        with pytest.raises(AccuracyError, match=f"degree {first}"):
            gegenbauer._member_values(first, 1, 2, [0.5], 1.0)
        assert math.isfinite(gegenbauer._member_values(first - 1, 1, 2, [0.5], 1.0)[0])

    @pytest.mark.parametrize("n, lam, message", [
        (808, Fraction(1, 2), "1.0000045236324695e-10 exceeds 1e-10 of the scale 1 at degree 808"),
        (808, Fraction(1), "8.090036596186678e-08 exceeds 1e-10 of the scale 809 at degree 808"),
        (1600, Fraction(3), "34528.58630048502 exceeds 1e-10 of the scale 8.82034e+13 "
         "at degree 1600"),
        (4000, Fraction(3), "20935127.342757147 exceeds 1e-10 of the scale 8.56538e+15 "
         "at degree 4000"),
        (20000, Fraction(3), "1629770923138.4238 exceeds 1e-10 of the scale 2.66867e+19 "
         "at degree 20000"),
    ], ids=["808-1/2", "808-1", "1600-3", "4000-3", "20000-3"])
    def test_member_form_refuses_its_bound(self, fresh_member_forms, n, lam, message):
        # decided from C_n(1) before a coefficient is carried; a refused
        # degree is not cached
        with pytest.raises(AccuracyError) as info:
            gegenbauer._member_form(n, *lam.as_integer_ratio())
        assert str(info.value) == f"Chebyshev evaluation bound {message}"
        assert gegenbauer._member_form.cache_info().currsize == 0

    @pytest.mark.parametrize("values", [
        lambda: AlphaPoly((10 ** 400,)).values([0.5], 1.0),          # Horner's coefficient
        lambda: gegenbauer._member_values(300, 1000, 1, [0.5], 1.0),  # a Chebyshev coefficient
        lambda: AlphaPoly((1,), grade=-1100).values([0.5], 0.5),     # the factor a^grade
        lambda: from_recurrence(GegenbauerSpec(300, 1000)).values([1.0], 1.0),  # an exact value
    ], ids=["horner", "chebyshev", "grade", "exact"])
    def test_coefficient_past_the_float_range_raises(self, values):
        # int / int or a float power past the float range raised a bare
        # OverflowError
        with pytest.raises(AccuracyError, match="past the float range"):
            values()

    @pytest.mark.parametrize("values, degree", [
        (lambda: AlphaPoly((10 ** 308, 10 ** 308)).values([1.0], 1.0), 1),      # Horner
        (lambda: AlphaPoly((10 ** 300,), grade=-3).values([0.5], 1e-5), 0),     # v * a^grade
        (lambda: gegenbauer._member_values(218, 1000, 1, [1.0], 1.0), 218),     # Clenshaw's y_k
    ], ids=["horner", "grade", "chebyshev"])
    def test_value_that_is_not_finite_raises(self, values, degree):
        # each came back inf or nan; the exact value at degree 218 is
        # 8.095451226191194e+307
        with pytest.raises(AccuracyError,
                           match=f"degree-{degree} polynomial is not finite"):
            values()


# points where the two loops could part: signed zeros, the ends and
# subnormal or tiny x, whose x^a is far from x
SPECIAL_POINTS = (0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-300, -2.5e-8)


def _points(rng: random.Random, size: int, specials=SPECIAL_POINTS) -> list[float]:
    xs = [*specials, *(rng.uniform(-1.0, 1.0) for _ in range(size - len(specials)))]
    rng.shuffle(xs)
    return xs


def _hex_chunked(values, xs: list[float]) -> list[str]:
    """values(points) over xs in chunks of _COLUMN_POINTS - 1 points, each
    of which takes the scalar loop, as float.hex."""
    step = _COLUMN_POINTS - 1
    return [v.hex() for i in range(0, len(xs), step) for v in values(xs[i:i + step])]


def _hex(values: list[float]) -> list[str]:
    return [v.hex() for v in values]


_POINT_LISTS = st.builds(
    _points, st.integers(0, 2 ** 32).map(random.Random),
    st.integers(_COLUMN_POINTS, 3 * _COLUMN_POINTS),
    st.lists(st.sampled_from(SPECIAL_POINTS), max_size=len(SPECIAL_POINTS)))
_ORDERS = st.sampled_from((1.0, 0.5, 0.75, 0.3, 0.9, 1 / 3))


class TestColumnPath:
    """A list of `_COLUMN_POINTS` or more points is evaluated column-wise;
    the values are the scalar loop's, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 200), lam=st.sampled_from(WEIGHTS), a=_ORDERS, xs=_POINT_LISTS)
    def test_member_values_match_the_scalar_loop(self, n, lam, a, xs):
        p, q = lam.as_integer_ratio()

        def values(points):
            return gegenbauer._member_values(n, p, q, points, a)

        assert _hex(values(xs)) == _hex_chunked(values, xs)

    @settings(max_examples=40, deadline=None)
    @given(nums=st.lists(st.integers(-5, 50), min_size=1, max_size=12),
           grade=st.integers(-3, 3).filter(bool), a=_ORDERS, xs=_POINT_LISTS)
    def test_graded_polynomial_values_match_the_scalar_loop(self, nums, grade, a, xs):
        poly = AlphaPoly(nums, grade=grade)
        assert _hex(poly.values(xs, a)) == _hex_chunked(lambda points: poly.values(points, a), xs)

    @pytest.mark.parametrize("size", [_COLUMN_POINTS - 1, _COLUMN_POINTS, _COLUMN_POINTS + 1])
    @pytest.mark.parametrize("n", [4, 9, 40, 41, 64])
    def test_lists_at_the_threshold(self, size, n):
        xs = _points(random.Random(size * n), size)
        for p, q in ((1, 2), (1, 1), (3, 1)):
            assert _hex(gegenbauer._member_values(n, p, q, xs, 0.75)) == [
                gegenbauer._member_values(n, p, q, [x], 0.75)[0].hex() for x in xs]
        poly = AlphaPoly(range(1, n + 2), grade=2)
        assert _hex(poly.values(xs, 0.75)) == [poly.evaluate(x, 0.75).hex() for x in xs]

    def test_first_point_outside_is_named(self):
        xs = [0.5] * 300
        xs[100], xs[200] = -1.5, 2.0
        with pytest.raises(ParameterError) as whole:
            gegenbauer._member_values(30, 3, 1, xs, 1.0)
        with pytest.raises(ParameterError) as scalar:
            gegenbauer._member_values(30, 3, 1, xs[:_COLUMN_POINTS - 1], 1.0)
        assert str(whole.value) == str(scalar.value) == (
            "x^a = -1.5 lies outside [-1, 1], where the Chebyshev evaluator's bound holds")

    @pytest.mark.parametrize("values, degree", [
        (lambda: AlphaPoly((1, 2, 3)).values([1e200] * 300, 1.0), 2),                # Horner
        (lambda: gegenbauer._member_values(218, 1000, 1, [1.0] * 300, 1.0), 218),     # Clenshaw
    ], ids=["horner", "chebyshev"])
    def test_overflow_raises_without_a_warning(self, values, degree):
        # numpy would warn of the overflow, and raise the warning under -W error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AccuracyError,
                               match=f"degree-{degree} polynomial is not finite"):
                values()


def _run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


EVAL_DEGREES = (1, 8, 9, 24, 63, 64, 200)
EVAL_POINTS = ("-1.0", "-0.73", "-0.0", "0.0", "5e-324", "0.1", "0.5", "0.99", "1.0")
EVAL_ORDERS = ("1/3", "1/2", "1")


class TestEvalCommand:
    @pytest.mark.parametrize("n", EVAL_DEGREES)
    def test_csv_matches_the_recurrence_member_point_by_point(self, capsys, n):
        # eval evaluates the member's float form in one batch; below
        # Horner's bound its CSV is the recurrence member's value at each
        # point, byte for byte, and past it each value lies within the
        # member's Clenshaw bound of the exact one
        for lam in ("1/2", "3", "2/7", "5/2"):
            p, q = Fraction(lam).as_integer_ratio()
            poly = from_recurrence(GegenbauerSpec(n, Fraction(lam)))
            _, _, bound, _ = gegenbauer._member_form(n, p, q)
            for alpha in EVAL_ORDERS:
                code, out, err = _run(capsys, "eval", "--n", str(n), "--lambda", lam,
                                      "--alpha", alpha, "--x", *EVAL_POINTS)
                assert (code, err) == (0, "")
                a = float(Fraction(alpha))
                header, *lines = out.splitlines()
                assert header == "x,alpha,value"
                assert [line.rsplit(",", 1)[0] for line in lines] == [
                    f"{float(x)!r},{a!r}" for x in EVAL_POINTS]
                values = [float(line.rsplit(",", 1)[1]) for line in lines]
                if poly._horner is not None:
                    assert values == [poly.evaluate(float(x), a) for x in EVAL_POINTS]
                    continue
                for x, value in zip(map(float, EVAL_POINTS), values):
                    u = math.copysign(abs(x) ** a, x)
                    assert _error(value, poly, u) <= bound, (lam, alpha, x)

    @pytest.mark.parametrize("n", EVAL_DEGREES)
    def test_batched_values_match_per_point(self, n):
        rng = random.Random(n)
        xs = [float(x) for x in EVAL_POINTS] + [rng.uniform(-1.0, 1.0) for _ in range(8)]
        for lam in WEIGHTS:
            p = from_series(GegenbauerSpec(n, lam))
            for alpha in EVAL_ORDERS:
                a = float(Fraction(alpha))
                assert ([repr(v) for v in p.values(xs, a)]
                        == [repr(p.evaluate(x, a)) for x in xs]), (lam, alpha)

    def test_high_degree_value(self, capsys):
        code, out, _ = _run(capsys, "eval", "--n", "60", "--lambda", "3", "--alpha", "1",
                            "--x", "0.99")
        assert code == 0
        value = float(out.splitlines()[1].split(",")[2])
        p = from_recurrence(GegenbauerSpec(60, 3))
        # C_60^3(1) = (6)_60 / 60! = C(65, 5)
        assert p.coefficient_sum() == math.comb(65, 5)
        assert _error(value, p, 0.99) <= 1e-10 * math.comb(65, 5)
        assert value == pytest.approx(-31105.424079, abs=1e-6)

    @pytest.mark.parametrize("n", [2, 30])
    @pytest.mark.parametrize("x", ["1.5", "-1.0000001"])
    def test_point_outside_the_interval_exits_2(self, capsys, n, x):
        code, out, err = _run(capsys, "eval", "--n", str(n), "--lambda", "3",
                              "--alpha", "1", "--x", "0.5", x)
        assert code == 2 and out == ""
        assert err.startswith("error: eval points must lie in [-1, 1]")

    def test_bound_past_tolerance_exits_3(self, capsys):
        code, out, err = _run(capsys, "eval", "--n", "808", "--lambda", "1/2",
                              "--alpha", "1", "--x", "0.5")
        assert code == 3 and out == ""
        assert err.startswith("accuracy failure: Chebyshev evaluation bound")
        assert "best estimate" not in err
        code, out, err = _run(capsys, "eval", "--n", "20000", "--lambda", "3",
                              "--alpha", "1", "--x", "0.5")
        assert (code, out) == (3, "")
        assert err == ("accuracy failure: Chebyshev evaluation bound 1629770923138.4238 exceeds "
                       "1e-10 of the scale 2.66867e+19 at degree 20000\n")

    @pytest.mark.parametrize("command", [("eval", "--x", "0.5"), ("plot-data", "--samples", "3")])
    def test_coefficient_past_the_float_range_exits_3(self, capsys, command):
        # this ended in an OverflowError traceback with exit 1
        name, *rest = command
        code, out, err = _run(capsys, name, "--n", "300", "--lambda", "1000", "--alpha", "1",
                              *rest)
        assert code == 3 and out == ""
        assert err.startswith("accuracy failure: a float coefficient of this degree-300 "
                              "polynomial lies past the float range")

    @pytest.mark.parametrize("command", [("eval", "--x", "1"), ("plot-data", "--samples", "3")])
    def test_value_that_is_not_finite_exits_3(self, capsys, command):
        # the Clenshaw sum's intermediates overflow at x = 1, where the value
        # is finite: this printed nan with exit 0
        name, *rest = command
        code, out, err = _run(capsys, name, "--n", "218", "--lambda", "1000", "--alpha", "1",
                              *rest)
        assert code == 3 and out == ""
        assert err == ("accuracy failure: a float value of this degree-218 polynomial "
                       "is not finite\n")
