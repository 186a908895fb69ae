"""Float evaluation: which evaluator each polynomial takes, each one's error
against exact rational values at the same float u, the working range and
the exit codes of `eval`."""
import math
import random
from fractions import Fraction

import pytest

import congeg.gegenbauer as gegenbauer
from congeg import AlphaPoly, GegenbauerSpec, from_recurrence, from_series
from congeg.alphapoly import (AccuracyError, ParameterError, _chebyshev_form,
                              _chebyshev_numerators)
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


def _chebyshev_only(poly: AlphaPoly) -> AlphaPoly:
    """A copy of poly that takes the Chebyshev evaluator at any degree: its
    cached choice is filled before first use.  The copy keeps the route
    memo's shared polynomial untouched."""
    copy = AlphaPoly._of(list(poly.nums), poly.den, poly.grade)
    copy.__dict__["_chebyshev"] = _chebyshev_form(poly.nums, poly.den)
    return copy


class TestChoice:
    @pytest.mark.parametrize("lam", HORNER_UP_TO, ids=str)
    def test_horner_kept_up_to_the_pinned_degree(self, lam):
        for n in range(65):
            horner = from_series(GegenbauerSpec(n, lam))._chebyshev is None
            assert horner == (n <= HORNER_UP_TO[lam]), n

    @pytest.mark.parametrize("n", range(1, 6))
    def test_golden_curves_stay_on_horner(self, n):
        # the golden CSVs are weight 3, degrees 1..5
        assert from_series(GegenbauerSpec(n, 3))._chebyshev is None

    def test_chebyshev_coefficients_of_a_member_are_nonnegative(self):
        # DLMF 18.5: so sum |b_j| = C_n(1), and one parity part
        p = from_series(GegenbauerSpec(40, Fraction(2, 7)))
        parts, bound, _ = p._chebyshev
        assert len(parts) == 1 and parts[0][0] == 0
        assert all(b > 0 for b in parts[0][1])
        l1 = float(p.coefficient_sum())
        # m = 40 // 2 = 20
        assert bound == pytest.approx((5.5 * 20 * 20 + 7.5 * 20 + 6) * EPS * l1, rel=1e-12)

    def test_mixed_parity_has_two_parts(self):
        # u^2 + u = (T_0 + T_2) / 2 + T_1, each part highest index first
        parts, _, scale = _chebyshev_form((0, 1, 1), 1)
        assert parts == ((0, (0.5, 0.5)), (1, (1.0,)))
        assert scale == 2.0


@pytest.fixture
def fresh_member_forms():
    gegenbauer._member_form.cache_clear()
    yield
    gegenbauer._member_form.cache_clear()


MEMBER_WEIGHTS = (Fraction(1, 2), Fraction(1), Fraction(3), Fraction(2, 7), Fraction(675, 22))


class TestMemberForm:
    """`gegenbauer._member_form`, the closed form of DLMF 18.5.11, gives a
    member the evaluator `AlphaPoly._float_form` gives its series, bit for
    bit."""

    @pytest.mark.parametrize("lam", MEMBER_WEIGHTS, ids=str)
    def test_same_choice_and_floats_as_the_series(self, fresh_member_forms, lam):
        p, q = lam.as_integer_ratio()
        for n in range(301):
            poly = gegenbauer._series_coeffs(n, p, q)
            chebyshev, horner = gegenbauer._member_form(n, p, q)
            assert (chebyshev is None) == (poly._chebyshev is None), n
            assert (chebyshev, horner) == poly._float_form(), n

    @pytest.mark.parametrize("lam", MEMBER_WEIGHTS, ids=str)
    def test_closed_form_equals_the_conversion_at_every_degree(
            self, monkeypatch, fresh_member_forms, lam):
        # Horner's range included: with its test failing, every member
        # takes the closed form
        monkeypatch.setattr(gegenbauer, "_fits_horner", lambda *args: False)
        p, q = lam.as_integer_ratio()
        for n in range(201):
            poly = gegenbauer._series_coeffs(n, p, q)
            assert gegenbauer._member_form(n, p, q) == (
                _chebyshev_form(poly.nums, poly.den), ()), n

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


class TestConversionExact:
    """The conversion's integers B_j over den 2^n are the Chebyshev
    coefficients b_j exactly."""

    @pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(1), Fraction(5, 2),
                                     Fraction(3), Fraction(2, 7)], ids=str)
    def test_members_match_the_closed_form(self, lam):
        # DLMF 18.5.11: C_n(cos t) = sum_k r_k r_(n-k) cos((n-2k) t) with
        # r_k = (lam)_k / k!, so b_(n-2k) = 2 r_k r_(n-k) for n - 2k > 0 and
        # the middle term counts once
        r = [Fraction(1)]
        for k in range(200):
            r.append(r[-1] * (lam + k) / (k + 1))
        for n in range(201):
            p = from_series(GegenbauerSpec(n, lam))
            big, shared = _chebyshev_numerators(p.nums), p.den << n
            for k in range(n // 2 + 1):
                b = r[k] * r[n - k] * (1 if 2 * k == n else 2)
                assert big[n - 2 * k] * b.denominator == b.numerator * shared, (n, k)
            assert not any(big[(n + 1) % 2::2]), n

    def test_mixed_parity_matches_the_binomial_expansion(self):
        # u^k = 2^(1-k) sum_(i < k/2) C(k, i) T_(k-2i), plus 2^-k C(k, k/2) T_0
        # for even k
        rng = random.Random(21)
        for _ in range(200):
            n = rng.randrange(0, 60)
            nums = [rng.randrange(-10 ** 20, 10 ** 20) for _ in range(n)]
            nums.append(rng.choice([-1, 1]) * rng.randrange(1, 10 ** 20))
            den = rng.randrange(1, 10 ** 15)
            b = [Fraction(0)] * (n + 1)
            for k, c in enumerate(nums):
                for i in range(k // 2 + 1):
                    half = 2 if 2 * i == k else 1
                    b[k - 2 * i] += Fraction(2 * c * math.comb(k, i), den * 2 ** k * half)
            big = _chebyshev_numerators(tuple(nums))
            assert [Fraction(v, den << n) for v in big] == b, (nums, den)


class TestChebyshevAgainstExact:
    """Every error is within the stated bound
    (5.5 m^2 + 7.5 m + 6) eps * sum |b_j|, m = floor(n/2)."""

    @pytest.mark.parametrize("lam", WEIGHTS, ids=str)
    def test_within_bound_up_to_degree_200(self, lam):
        worst = 0.0
        for n in range(201):
            p = _chebyshev_only(from_series(GegenbauerSpec(n, lam)))
            _, bound, scale = p._chebyshev
            for u, value in zip(POINTS, p.values(POINTS, 1.0)):
                err = _error(value, p, u)
                assert err <= bound, (n, u, err, bound)
                worst = max(worst, err / scale)
        # far inside the bound, which reaches about 6.2e-12 of scale at n = 200
        assert worst < 1e-13

    @pytest.mark.parametrize("alpha", [Fraction(1, 3), Fraction(7, 10)], ids=str)
    def test_fractional_order_uses_the_same_u(self, alpha):
        p = from_series(GegenbauerSpec(40, Fraction(1, 2)))
        a = float(alpha)
        _, bound, _ = p._chebyshev
        for x in POINTS:
            u = math.copysign(abs(x) ** a, x)
            assert _error(p.evaluate(x, a), p, u) <= bound

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
    @staticmethod
    def _assert_within_bound(p: AlphaPoly) -> None:
        _, bound, _ = p._chebyshev
        for u, value in zip(EDGES, p.values(EDGES, 1.0)):
            err = _error(value, p, u)
            assert err <= bound, (p.degree, u, err, bound)

    @pytest.mark.parametrize("lam", WEIGHTS, ids=str)
    def test_members_up_to_degree_200(self, lam):
        for n in range(201):
            self._assert_within_bound(_chebyshev_only(from_series(GegenbauerSpec(n, lam))))

    def test_mixed_parity_non_member(self):
        p = _chebyshev_only(from_series(GegenbauerSpec(200, 1))
                            + from_series(GegenbauerSpec(199, 1)))
        assert [odd for odd, _ in p._chebyshev[0]] == [0, 1]
        self._assert_within_bound(p)


class TestHornerAgainstExact:
    @pytest.mark.parametrize("lam", WEIGHTS, ids=str)
    def test_within_gamma_bound(self, lam):
        for n in range(HORNER_UP_TO.get(lam, 8) + 1):
            p = from_series(GegenbauerSpec(n, lam))
            assert p._chebyshev is None
            m = 2 * n + 1
            bound = m * EPS / (1 - m * EPS) * float(sum(map(abs, p.coeffs)))
            for u, value in zip(POINTS, p.values(POINTS, 1.0)):
                assert _error(value, p, u) <= bound

    def test_values_match_evaluate(self):
        for n in (4, 30):
            p = from_series(GegenbauerSpec(n, 3))
            assert p.values(POINTS, 0.5) == [p.evaluate(x, 0.5) for x in POINTS]


def _signed_power_values(p: AlphaPoly, xs) -> list[float]:
    """p at the points xs and order 1 through the signed power
    u = copysign(|x|^1, x) that every other order takes, then p's evaluator
    written out: Horner on `_horner`, or Clenshaw on each parity part of
    `_chebyshev`, the first part's sums taken as they are."""
    us = [math.copysign(abs(x) ** 1.0, x) for x in xs]
    if p._chebyshev is None:
        out = []
        for u in us:
            acc = 0.0
            for c in p._horner:
                acc = acc * u + c
            out.append(acc)
        return out
    out = None
    for odd, coeffs in p._chebyshev[0]:
        sums = []
        for u in us:
            w2 = 4.0 * u * u - 2.0
            y1 = y2 = 0.0
            for c in coeffs:
                y1, y2 = c + w2 * y1 - y2, y1
            sums.append(u * (y1 - y2) if odd else y1 - 0.5 * w2 * y2)
        out = sums if out is None else [v + w for v, w in zip(out, sums)]
    return out


ORDER_ONE_POINTS = (1.0, -1.0, 0.0, -0.0, 5e-324, -5e-324, 1 - 2.0 ** -52,
                    -(1 - 2.0 ** -52)) + POINTS[5:]


class TestOrderOne:
    """At order 1 `values` takes u = x itself, and gives what the signed
    power gave, bit for bit: -0.0 and the sign of every zero included."""

    @pytest.mark.parametrize("n,lam,chebyshev", [
        (4, 3, False), (5, 3, False), (40, Fraction(2, 7), True), (41, Fraction(2, 7), True)])
    def test_bit_identical_to_the_signed_power(self, n, lam, chebyshev):
        p = from_series(GegenbauerSpec(n, lam))
        assert (p._chebyshev is not None) == chebyshev
        got = p.values(ORDER_ONE_POINTS, 1.0)
        assert [v.hex() for v in got] == [
            v.hex() for v in _signed_power_values(p, ORDER_ONE_POINTS)]

    def test_odd_chebyshev_member_keeps_the_sign_of_zero(self):
        # so the comparison above can see a u that lost the sign of -0.0
        p = from_series(GegenbauerSpec(41, Fraction(2, 7)))
        assert [v.hex() for v in p.values((0.0, -0.0), 1.0)] == ["0x0.0p+0", "-0x0.0p+0"]


class TestWorkingRange:
    def test_chebyshev_refuses_points_outside(self):
        p = from_series(GegenbauerSpec(30, 3))
        with pytest.raises(ParameterError, match=r"outside \[-1, 1\]"):
            p.values([0.5, 1.5], 1.0)
        with pytest.raises(ParameterError, match=r"outside \[-1, 1\]"):
            p.evaluate(math.nan, 1.0)

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
        p = from_recurrence(GegenbauerSpec(first, Fraction(1, 2)))
        with pytest.raises(AccuracyError, match=f"degree {first}"):
            p.evaluate(0.5, 1.0)
        assert math.isfinite(
            from_recurrence(GegenbauerSpec(first - 1, Fraction(1, 2))).evaluate(0.5, 1.0))

    @pytest.mark.parametrize("poly", [
        AlphaPoly((10 ** 400,)),                                    # Horner's coefficient
        from_recurrence(GegenbauerSpec(300, 1000)),              # a Chebyshev coefficient
    ], ids=["horner", "chebyshev"])
    def test_coefficient_past_the_float_range_raises(self, poly):
        # int / int past the float range raised a bare OverflowError
        with pytest.raises(AccuracyError, match="past the float range"):
            poly.values([0.5], 1.0)


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
        # eval evaluates the member's float form in one batch; its CSV is
        # the recurrence member's value at each point, byte for byte
        for lam in ("1/2", "3", "2/7", "5/2"):
            for alpha in EVAL_ORDERS:
                code, out, err = _run(capsys, "eval", "--n", str(n), "--lambda", lam,
                                      "--alpha", alpha, "--x", *EVAL_POINTS)
                p = from_recurrence(GegenbauerSpec(n, Fraction(lam)))
                a = float(Fraction(alpha))
                rows = [f"{float(x)!r},{a!r},{p.evaluate(float(x), a)!r}" for x in EVAL_POINTS]
                assert (code, err) == (0, "")
                assert out == "\n".join(["x,alpha,value", *rows]) + "\n", (lam, alpha)

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

    @pytest.mark.parametrize("command", [("eval", "--x", "0.5"), ("plot-data", "--samples", "3")])
    def test_coefficient_past_the_float_range_exits_3(self, capsys, command):
        # this ended in an OverflowError traceback with exit 1
        name, *rest = command
        code, out, err = _run(capsys, name, "--n", "300", "--lambda", "1000", "--alpha", "1",
                              *rest)
        assert code == 3 and out == ""
        assert err.startswith("accuracy failure: a float coefficient of this degree-300 "
                              "polynomial lies past the float range")
