"""Family constructors: frozen low-order values, route agreement, special cases."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import congeg.gegenbauer as gegenbauer
import congeg.verify as verify
from congeg.alphapoly import AccuracyError, AlphaPoly, ParameterError, pochhammer
from congeg.gegenbauer import (GegenbauerSpec, UltrasphericalSpec, _rodrigues_kernel,
                               chebyshev_t, chebyshev_t_rodrigues, classical_oracle,
                               from_recurrence, from_rodrigues, from_series,
                               legendre, ultraspherical,
                               ultraspherical_rodrigues)
from congeg.quadrature import (AuditRow, QuadratureResult, _cell, classical_norm,
                               conformable_inner_product, conformable_inner_product_direct,
                               normalization_audit, normalization_closed_form,
                               orthogonality_check)
from congeg.report import VerificationReport
from congeg.verify import generating_function_coeffs

HALF = Fraction(1, 2)
ONE = Fraction(1)

weights = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=8)


def F(*values) -> tuple:
    return tuple(Fraction(v) for v in values)


# weight 3 family, degrees 0..5, coefficients in the x^(k a) basis
WEIGHT3 = {
    0: F(1),
    1: F(0, 6),
    2: F(-3, 0, 24),
    3: F(0, -24, 0, 80),
    4: F(6, 0, -120, 0, 240),
    5: F(0, 60, 0, -480, 0, 672),
}


class TestFrozenTables:
    @pytest.mark.parametrize("n,expected", sorted(WEIGHT3.items()))
    def test_weight3_series(self, n, expected):
        poly = from_series(GegenbauerSpec(n, Fraction(3)))
        assert poly.rational_coeffs() == expected

    def test_weight3_strings(self):
        fam = {n: str(from_series(GegenbauerSpec(n, Fraction(3))))
               for n in range(6)}
        assert fam[2] == "24 x^2a - 3"
        assert fam[4] == "240 x^4a - 120 x^2a + 6"
        assert fam[5] == "672 x^5a - 480 x^3a + 60 x^a"

    def test_legendre_coeffs(self):
        assert legendre(2).rational_coeffs() == F("-1/2", 0, "3/2")
        assert legendre(3).rational_coeffs() == F(0, "-3/2", 0, "5/2")

    def test_second_kind_weight(self):
        assert from_series(GegenbauerSpec(2, ONE)).rational_coeffs() == F(-1, 0, 4)

    def test_first_kind(self):
        assert chebyshev_t(2).rational_coeffs() == F(-1, 0, 2)
        assert chebyshev_t(3).rational_coeffs() == F(0, -3, 0, 4)

    def test_classical_oracle(self):
        assert classical_oracle(2, ONE) == [Fraction(-1), Fraction(0), Fraction(4)]
        assert classical_oracle(3, HALF) == [Fraction(0), Fraction(-3, 2),
                                             Fraction(0), Fraction(5, 2)]


class TestStructure:
    def test_leading_coefficient(self):
        # 2^n (lam)_n / n!
        for n, lam in [(4, Fraction(3)), (6, HALF), (5, Fraction(5, 2))]:
            poly = from_series(GegenbauerSpec(n, lam))
            expected = Fraction(2 ** n) * pochhammer(lam, n) / math.factorial(n)
            assert poly.rational_coeffs()[-1] == expected

    def test_endpoint_sum(self):
        # sum of coefficients is Gamma(2 lam + n) / (Gamma(2 lam) n!)
        values = [from_series(GegenbauerSpec(n, Fraction(3))).coefficient_sum()
                  for n in range(1, 6)]
        assert values == [6, 21, 56, 126, 252]

    def test_parity(self):
        for n in range(7):
            coeffs = from_series(GegenbauerSpec(n, Fraction(5, 2))).rational_coeffs()
            assert all(coeffs[k] == 0 for k in range(len(coeffs)) if (n - k) % 2)

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            GegenbauerSpec(-1, ONE)
        with pytest.raises(ParameterError):
            GegenbauerSpec(2, Fraction(0))
        with pytest.raises(TypeError):  # a spec takes no order
            GegenbauerSpec(2, ONE, HALF)

    def test_specs_carry_no_order(self):
        assert list(GegenbauerSpec._fields) == ["n", "lam"]
        assert list(UltrasphericalSpec._fields) == ["n", "beta"]

    def test_order_shows_up_only_in_basis(self):
        member = from_series(GegenbauerSpec(4, Fraction(3)))
        assert member.evaluate(0.5, Fraction(1, 4)) != member.evaluate(0.5, Fraction(3, 4))


RECORDS = [
    (lambda: GegenbauerSpec(3, "1/2"), GegenbauerSpec(4, HALF),
     "GegenbauerSpec(n=3, lam=Fraction(1, 2))"),
    (lambda: UltrasphericalSpec(2, "-1/4"), UltrasphericalSpec(2, 0),
     "UltrasphericalSpec(n=2, beta=Fraction(-1, 4))"),
    (lambda: VerificationReport("ode", "n <= 3", "fail", 0.5, "w", "n", False, (1,)),
     VerificationReport("ode", "n <= 3", "fail", 0.5, "w", "n", False),
     "VerificationReport(identity='ode', grid='n <= 3', status='fail', max_residual=0.5, "
     "witness='w', notes='n', asserted=False)"),
    (lambda: QuadratureResult(1.5, 2e-16, 0), QuadratureResult(1.5, 2e-16, 1),
     "QuadratureResult(value=1.5, error=2e-16, nodes_used=0)"),
    (lambda: AuditRow(1, ONE, HALF, 1.0, 2.0, 3.0, 1.0, 0.0),
     AuditRow(1, ONE, HALF, 1.0, 2.0, 3.0, 1.0, 0.5),
     "AuditRow(n=1, lam=Fraction(1, 1), alpha=Fraction(1, 2), quadrature=1.0, "
     "closed_form=2.0, gamma_product=3.0, derived=1.0, rel_diff_quadrature_vs_derived=0.0)"),
]


class TestValueRecords:
    """Each record is an immutable value: equal to a record of its class with
    equal fields and to nothing else, hashed by its fields, printed by them."""

    @pytest.mark.parametrize("make,other,text", RECORDS,
                             ids=[text.split("(")[0] for _, _, text in RECORDS])
    def test_value_semantics(self, make, other, text):
        record, twin = make(), make()
        values = tuple(getattr(record, name) for name in record._fields)
        assert record == twin and record is not twin and hash(record) == hash(twin)
        assert hash(record) == hash(values)
        assert record != other and record != values
        assert repr(record) == repr(twin) == text
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert record == twin

    def test_equality_stays_within_one_class(self):
        # equal field values, and the same member, in two classes
        assert GegenbauerSpec(1, 1) != UltrasphericalSpec(1, 1)
        assert GegenbauerSpec(1, 1) != UltrasphericalSpec(1, HALF)


class TestRouteAgreement:
    @pytest.mark.parametrize("lam", [HALF, ONE, Fraction(5, 2), Fraction(3)])
    @pytest.mark.parametrize("alpha", [Fraction(1, 4), HALF, ONE])
    def test_three_routes(self, lam, alpha):
        # one member for every order, which is the classical one at u = x^a
        u = 0.3 ** float(alpha)
        for n in range(9):
            spec = GegenbauerSpec(n, lam)
            s = from_series(spec)
            assert from_recurrence(spec) == s
            assert from_rodrigues(spec) == s
            classical = sum(float(c) * u ** k for k, c in enumerate(classical_oracle(n, lam)))
            assert s.evaluate(0.3, alpha) == pytest.approx(classical, rel=1e-13, abs=1e-13)

    @given(st.integers(0, 32), weights)
    @settings(max_examples=40, deadline=None)
    def test_routes_agree_off_grid(self, n, lam):
        spec = GegenbauerSpec(n, lam)
        s = from_series(spec)
        assert from_recurrence(spec) == s
        rodrigues = from_rodrigues(spec)
        assert rodrigues.grade == 0
        assert rodrigues == s

    # weight denominators other than 1 and 2 exercise the q^m and t^n scaling
    # of the integer recurrence and Rodrigues kernels
    @pytest.mark.parametrize("lam", [Fraction(2, 7), Fraction(343, 11), Fraction(5, 3)])
    def test_routes_match_oracle_to_degree_64(self, lam):
        for n in (0, 1, 2, 3, 7, 16, 31, 48, 63, 64):
            oracle = tuple(classical_oracle(n, lam))
            spec = GegenbauerSpec(n, lam)
            for route in (from_series, from_recurrence, from_rodrigues):
                poly = route(spec)
                assert poly.grade == 0 and poly.rational_coeffs() == oracle

    @pytest.mark.parametrize("lam", [Fraction(2, 7), Fraction(5, 2), Fraction(343, 11)])
    def test_routes_store_identical_integers_to_degree_64(self, lam):
        # each route hands its own integers over its own denominator to one
        # reduction, so the stored numerators and denominator must coincide
        for n in range(65):
            spec = GegenbauerSpec(n, lam)
            s = from_series(spec)
            for route in (from_recurrence, from_rodrigues):
                poly = route(spec)
                assert (poly.nums, poly.den) == (s.nums, s.den), (route.__name__, n)
            assert math.gcd(s.den, *s.nums) == 1 and s.nums[-1] != 0
        # the series against the recurrence, its independent oracle, at
        # degrees the suites never reach: to 200, and at 1000 for two weights
        specs = [GegenbauerSpec(n, lam) for n in range(65, 201)]
        if lam == Fraction(2, 7):
            specs += [GegenbauerSpec(1000, lam), GegenbauerSpec(1000, 3)]
        for spec in specs:
            assert from_series(spec) == from_recurrence(spec), spec

    @given(st.integers(0, 24), weights)
    @settings(max_examples=40, deadline=None)
    def test_routes_build_normalized_polynomials(self, n, lam):
        # the routes build their results without the public constructor's checks
        spec = GegenbauerSpec(n, lam)
        for poly in (from_series(spec), from_recurrence(spec), from_rodrigues(spec),
                     _rodrigues_kernel(n, lam - HALF)):
            assert all(type(c) is Fraction for c in poly.coeffs)
            assert poly.coeffs[-1] != 0
            assert AlphaPoly(poly.coeffs, poly.grade) == poly

    @given(st.integers(1, 8), weights)
    @settings(max_examples=40, deadline=None)
    def test_derivative_ladder_single_step(self, n, lam):
        lhs = from_series(GegenbauerSpec(n, lam)).d_alpha()
        rhs = from_series(GegenbauerSpec(n - 1, lam + 1)).scale(2 * lam, power=1)
        assert lhs == rhs


class TestUltraspherical:
    def test_matches_shifted_weight(self):
        spec = UltrasphericalSpec(3, HALF)
        assert spec.lam == ONE
        assert ultraspherical(spec) == from_series(GegenbauerSpec(3, ONE))

    def test_beta_validation(self):
        with pytest.raises(ParameterError):
            UltrasphericalSpec(2, Fraction(-1, 2))

    @given(st.integers(0, 12),
           st.sampled_from([Fraction(-1, 3), Fraction(0), HALF, Fraction(3, 2)]))
    @settings(max_examples=20, deadline=None)
    def test_rodrigues_kernel_has_grade_n(self, n, beta):
        # n conformable derivatives contribute a^n, cancelled by the prefactor
        assert _rodrigues_kernel(n, beta).grade == n

    def test_rodrigues_frozen_value(self):
        # series gives 2 u; the route carries the extra 2^b G(b+1/2)/sqrt(pi)
        coeffs = ultraspherical_rodrigues(UltrasphericalSpec(1, HALF))
        assert coeffs[0] == 0.0
        assert coeffs[1] == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), rel=1e-12)

    @pytest.mark.parametrize("beta", [Fraction(0), HALF, Fraction(3, 2), Fraction(5, 2)])
    def test_rodrigues_scales_series_by_constant(self, beta):
        # degree-independent ratio 2^b Gamma(b + 1/2) / sqrt(pi); the route
        # once returned all zeros from degree 90, 91 or 92 on, and raised
        # OverflowError from 131, as its degree-dependent gamma values left
        # the float range
        expected = 2.0 ** float(beta) * math.gamma(float(beta) + 0.5) / math.sqrt(math.pi)
        for n in [*range(0, 201, 8), 89, 90, 91, 92, 130, 131]:
            spec = UltrasphericalSpec(n, beta)
            numeric = ultraspherical_rodrigues(spec)
            exact = ultraspherical(spec).rational_coeffs()
            assert len(numeric) == len(exact)
            for got, base in zip(numeric, exact):
                if base == 0:
                    assert got == 0.0
                else:
                    assert got == pytest.approx(expected * base, rel=1e-12)

    @pytest.mark.parametrize("n,beta", [(3, 90), (200, 1000)])
    def test_rodrigues_constant_past_the_float_range_raises(self, n, beta):
        # G(2b+1) leaves the float range past b = 85.3; this raised a
        # bare OverflowError
        with pytest.raises(AccuracyError, match="past the float range"):
            ultraspherical_rodrigues(UltrasphericalSpec(n, beta))

    def test_rodrigues_coefficient_past_the_float_range_raises(self):
        # the constant (about 6.7e152 at b = 85) is finite and so is every
        # exact coefficient (up to about 4.4e155 at degree 220), but their
        # product is not; this returned inf silently
        spec = UltrasphericalSpec(220, 85)
        assert all(math.isfinite(c) for c in ultraspherical(spec).rational_coeffs())
        with pytest.raises(AccuracyError, match="degree-220 .* past the float range"):
            ultraspherical_rodrigues(spec)
        assert all(map(math.isfinite, ultraspherical_rodrigues(UltrasphericalSpec(218, 85))))


class TestFirstKind:
    @pytest.mark.parametrize("alpha", [HALF, ONE])
    def test_rodrigues_equals_recurrence_exactly(self, alpha):
        # one exact polynomial, so the values agree at every order
        for n in range(41):
            rodrigues, recurrence = chebyshev_t_rodrigues(n), chebyshev_t(n)
            assert rodrigues == recurrence
            assert rodrigues.evaluate(-0.3, alpha) == recurrence.evaluate(-0.3, alpha)

    def test_endpoint_is_one(self):
        for n in range(9):
            assert chebyshev_t(n).coefficient_sum() == 1

    def test_classical_evaluation(self):
        # T_5(cos t) = cos(5 t)
        poly = chebyshev_t(5)
        for t in (0.3, 1.1, 2.5):
            assert poly.evaluate(math.cos(t), 1) == pytest.approx(math.cos(5 * t), abs=1e-13)


# every entry point that takes a weight, through the one weight check
WEIGHT_ENTRY_POINTS = {
    "GegenbauerSpec": lambda lam: GegenbauerSpec(2, lam),
    "classical_oracle": lambda lam: classical_oracle(2, lam),
    "generating_function_coeffs": lambda lam: generating_function_coeffs(lam, 2),
    "conformable_inner_product": lambda lam: conformable_inner_product(1, 1, lam, HALF),
    "conformable_inner_product_direct":
        lambda lam: conformable_inner_product_direct(1, 1, lam, HALF),
    "normalization_closed_form": lambda lam: normalization_closed_form(1, lam, ONE),
    "classical_norm": lambda lam: classical_norm(1, lam),
}


class TestWeightCheck:
    @pytest.mark.parametrize("entry", WEIGHT_ENTRY_POINTS.values(), ids=WEIGHT_ENTRY_POINTS)
    @pytest.mark.parametrize("lam", [0, Fraction(-1, 2), -3])
    def test_nonpositive(self, entry, lam):
        with pytest.raises(ParameterError, match="weight parameter must be positive"):
            entry(lam)

    @pytest.mark.parametrize("entry", WEIGHT_ENTRY_POINTS.values(), ids=WEIGHT_ENTRY_POINTS)
    @pytest.mark.parametrize("lam", [True, False, "x", None, float("inf"), "1/0"])
    def test_not_exact(self, entry, lam):
        with pytest.raises(ParameterError, match="exact rational"):
            entry(lam)

    @pytest.mark.parametrize("bad,weight_message,order_message", [
        (True, "exact rational", "order must be a real number"),
        (False, "exact rational", "order must be a real number"),
        (math.nan, "exact rational", "order must be a real number"),
        (math.inf, "exact rational", "order must be a real number"),
        ("1/0", "exact rational", "order must be a real number"),
        (0, "weight parameter must be positive", r"order must lie in \(0, 1\]"),
        (-3, "weight parameter must be positive", r"order must lie in \(0, 1\]"),
    ])
    def test_warm_inner_product_cache_still_checks(self, bad, weight_message, order_message):
        # the inner product caches checked (weight, order) pairs by value and
        # type: True equals 1 and hashes like it, but must not find its entry
        for one in (1, ONE, 1.0, "1"):
            conformable_inner_product(1, 1, one, one)
        with pytest.raises(ParameterError, match=weight_message):
            conformable_inner_product(1, 1, bad, 1)
        with pytest.raises(ParameterError, match=order_message):
            conformable_inner_product(1, 1, 1, bad)

    def test_bool_order(self):
        # GegenbauerSpec(2, True, True) once built weight 1 at order 1
        for alpha in (True, False):
            with pytest.raises(ParameterError, match="order must be a real number"):
                orthogonality_check(1, (1,), (alpha,))
        with pytest.raises(ParameterError):
            GegenbauerSpec(2, True)
        conformable_inner_product(1, 1, 1, 1)  # warm the cache at weight 1, order 1
        with pytest.raises(ParameterError):
            conformable_inner_product(1, 1, True, True)
        for alpha in (True, False):
            with pytest.raises(ParameterError, match="order must be a real number"):
                conformable_inner_product(1, 1, 1, alpha)

    def test_unhashable_weight(self):
        # a list misses the typed cache but not the checks
        with pytest.raises(ParameterError, match="exact rational"):
            conformable_inner_product(1, 1, [1], 1)
        with pytest.raises(ParameterError, match="order must be a real number"):
            conformable_inner_product(1, 1, 1, [1])


# every entry point that takes a count, through the one count check
COUNT_ENTRY_POINTS = {
    "GegenbauerSpec": lambda k: GegenbauerSpec(k, ONE),
    "pochhammer": lambda k: pochhammer(HALF, k),
    "__pow__": lambda k: AlphaPoly((1, 2)) ** k,
    "shift": lambda k: AlphaPoly((1, 2)).shift(k),
    "generating_function_coeffs": lambda k: generating_function_coeffs(ONE, k),
    "normalization_audit n_max": lambda k: normalization_audit(n_max=k),
}


class TestCountCheck:
    @pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS.values(), ids=COUNT_ENTRY_POINTS)
    @pytest.mark.parametrize("k", [True, 1.5, -1])
    def test_not_a_count(self, entry, k):
        # True once ran as 1 (a sweep's grid then read "n <= True"); 1.5
        # raised a bare TypeError in some of them
        with pytest.raises(ParameterError, match="must be a nonnegative integer"):
            entry(k)


# where an exact order enters: the orthogonality proof's orders, and the
# inner product, whose value divides by the order
ORDER_ENTRY_POINTS = (lambda alpha: orthogonality_check(1, (1,), (alpha,)),
                      lambda alpha: conformable_inner_product(5, 5, 3, alpha))


class TestExactOrder:
    def test_float_order_is_its_binary_fraction(self):
        alpha = _cell(3, 0.7).alpha
        assert type(alpha) is Fraction and alpha == Fraction(0.7)

    def test_float_order_evaluates_as_its_fraction(self):
        member = from_series(GegenbauerSpec(5, Fraction(5, 2)))
        for x in (-0.9, -0.25, 0.0, 0.3, 0.77, 1.0):
            assert member.evaluate(x, Fraction(0.7)) == member.evaluate(x, 0.7)
        assert (conformable_inner_product(5, 5, Fraction(5, 2), 0.7)
                == conformable_inner_product(5, 5, Fraction(5, 2), Fraction(0.7)))

    @pytest.mark.parametrize("alpha", [None, "x", float("nan"), float("inf"), "1/0"])
    def test_not_a_real_order(self, alpha):
        for entry in ORDER_ENTRY_POINTS:
            with pytest.raises(ParameterError, match="order must be a real number"):
                entry(alpha)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5])
    def test_float_order_outside_range(self, alpha):
        for entry in ORDER_ENTRY_POINTS:
            with pytest.raises(ParameterError, match=r"order must lie in \(0, 1\]"):
                entry(alpha)


def _leibniz_reference(n, c):
    """sum_k binom(n,k) (c+k+1)_(n-k) (n+c-k+1)_k (u+1)^k (u-1)^(n-k), summed
    term by term in Fractions."""
    total = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        term = [math.comb(n, k) * pochhammer(c + k + 1, n - k) * pochhammer(n + c - k + 1, k)]
        for root in [-1] * k + [1] * (n - k):
            # multiply by (u - root)
            term = [lo - root * hi for lo, hi in zip([Fraction(0)] + term, term + [0])]
        total = [a + b for a, b in zip(total, term)]
    return tuple(total)


@pytest.mark.parametrize("lam", [ONE, Fraction(5, 2), Fraction(2, 7)])
def test_rodrigues_kernel_matches_leibniz_sum(lam):
    # the kernel keeps every term over the one denominator t^n of c = r/t
    for c in (lam - HALF, -HALF, lam):
        for n in range(13):
            assert _rodrigues_kernel(n, c) == AlphaPoly(_leibniz_reference(n, c), n)


# The Rodrigues prefactor, the first-kind Rodrigues prefactor and the
# endpoint value are quotients of integer running products: none of them
# does arithmetic on a Fraction.
CONSTANT_WEIGHTS = (HALF, ONE, Fraction(5, 2), Fraction(3), Fraction(2, 7))
FRACTION_OPERATORS = ("__add__", "__sub__", "__mul__", "__truediv__", "__pow__",
                      "__radd__", "__rsub__", "__rmul__", "__rtruediv__", "__rpow__")


def _constants(n_max):
    """Every constant-bearing result on the grid, each from its memo's body
    or its unmemoized function."""
    out = [(n, chebyshev_t_rodrigues(n)) for n in range(n_max + 1)]
    for lam in CONSTANT_WEIGHTS:
        p, q = lam.as_integer_ratio()
        for n in range(n_max + 1):
            out.append((n, p, q, gegenbauer._rodrigues_coeffs.__wrapped__(n, p, q),
                        verify._endpoint_value.__wrapped__(n, p, q)))
    return out


def test_constants_do_no_fraction_arithmetic(monkeypatch):
    reference = _constants(24)

    def refuse(*args):
        raise AssertionError("arithmetic on a Fraction")

    with monkeypatch.context() as patch:
        for name in FRACTION_OPERATORS:
            patch.setattr(Fraction, name, refuse)
        got = _constants(24)
    assert got == reference


PIN_WEIGHTS = CONSTANT_WEIGHTS + (Fraction(343, 11),)


@pytest.mark.parametrize("lam", PIN_WEIGHTS, ids=str)
def test_constants_past_degree_64(lam):
    p, q = lam.as_integer_ratio()
    for n in range(121):
        rodrigues = gegenbauer._rodrigues_coeffs.__wrapped__(n, p, q)
        series = gegenbauer._series_coeffs.__wrapped__(n, p, q)
        assert (rodrigues.nums, rodrigues.den, rodrigues.grade) == (
            series.nums, series.den, series.grade)
        assert verify._endpoint_value.__wrapped__(n, p, q) == (
            pochhammer(2 * lam, n) / math.factorial(n))
