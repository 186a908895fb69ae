"""Family constructors: frozen low-order values, route agreement, special cases."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congeg.alphapoly import ParameterError, pochhammer
from congeg.gegenbauer import (GegenbauerSpec, UltrasphericalSpec, _rodrigues_kernel,
                               chebyshev_t, chebyshev_t_rodrigues, classical_oracle,
                               from_recurrence, from_rodrigues, from_series,
                               legendre, ultraspherical,
                               ultraspherical_rodrigues)

HALF = Fraction(1, 2)
ONE = Fraction(1)

orders = st.sampled_from([Fraction(1, 4), HALF, Fraction(3, 4), ONE])
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
        poly = from_series(GegenbauerSpec(n, Fraction(3), HALF))
        assert poly.rational_coeffs() == expected

    def test_weight3_strings(self):
        fam = {n: str(from_series(GegenbauerSpec(n, Fraction(3), HALF)))
               for n in range(6)}
        assert fam[2] == "24 x^2a - 3"
        assert fam[4] == "240 x^4a - 120 x^2a + 6"
        assert fam[5] == "672 x^5a - 480 x^3a + 60 x^a"

    def test_legendre_coeffs(self):
        assert legendre(2, HALF).rational_coeffs() == F("-1/2", 0, "3/2")
        assert legendre(3, HALF).rational_coeffs() == F(0, "-3/2", 0, "5/2")

    def test_second_kind_weight(self):
        assert from_series(GegenbauerSpec(2, ONE, HALF)).rational_coeffs() == F(-1, 0, 4)

    def test_first_kind(self):
        assert chebyshev_t(2, HALF).rational_coeffs() == F(-1, 0, 2)
        assert chebyshev_t(3, HALF).rational_coeffs() == F(0, -3, 0, 4)

    def test_classical_oracle(self):
        assert classical_oracle(2, ONE) == [Fraction(-1), Fraction(0), Fraction(4)]
        assert classical_oracle(3, HALF) == [Fraction(0), Fraction(-3, 2),
                                             Fraction(0), Fraction(5, 2)]


class TestStructure:
    def test_leading_coefficient(self):
        # 2^n (lam)_n / n!
        for n, lam in [(4, Fraction(3)), (6, HALF), (5, Fraction(5, 2))]:
            poly = from_series(GegenbauerSpec(n, lam, HALF))
            expected = Fraction(2 ** n) * pochhammer(lam, n) / math.factorial(n)
            assert poly.rational_coeffs()[-1] == expected

    def test_endpoint_sum(self):
        # sum of coefficients is Gamma(2 lam + n) / (Gamma(2 lam) n!)
        values = [from_series(GegenbauerSpec(n, Fraction(3), HALF)).coefficient_sum()
                  for n in range(1, 6)]
        assert values == [6, 21, 56, 126, 252]

    def test_parity(self):
        for n in range(7):
            coeffs = from_series(GegenbauerSpec(n, Fraction(5, 2), HALF)).rational_coeffs()
            assert all(coeffs[k] == 0 for k in range(len(coeffs)) if (n - k) % 2)

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            GegenbauerSpec(-1, ONE, HALF)
        with pytest.raises(ParameterError):
            GegenbauerSpec(2, Fraction(0), HALF)
        with pytest.raises(ParameterError):
            GegenbauerSpec(2, ONE, Fraction(3, 2))

    def test_order_shows_up_only_in_basis(self):
        a = from_series(GegenbauerSpec(4, Fraction(3), Fraction(1, 4)))
        b = from_series(GegenbauerSpec(4, Fraction(3), Fraction(3, 4)))
        assert a.rational_coeffs() == b.rational_coeffs()
        assert a != b


class TestRouteAgreement:
    @pytest.mark.parametrize("lam", [HALF, ONE, Fraction(5, 2), Fraction(3)])
    @pytest.mark.parametrize("alpha", [Fraction(1, 4), HALF, ONE])
    def test_three_routes(self, lam, alpha):
        for n in range(9):
            spec = GegenbauerSpec(n, lam, alpha)
            s = from_series(spec)
            assert from_recurrence(spec) == s
            assert from_rodrigues(spec) == s

    @given(st.integers(0, 32), weights, orders)
    @settings(max_examples=40, deadline=None)
    def test_routes_agree_off_grid(self, n, lam, alpha):
        spec = GegenbauerSpec(n, lam, alpha)
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
            spec = GegenbauerSpec(n, lam, Fraction(2, 3))
            for route in (from_series, from_recurrence, from_rodrigues):
                poly = route(spec)
                assert poly.grade == 0 and poly.rational_coeffs() == oracle

    @given(st.integers(1, 8), weights, orders)
    @settings(max_examples=40, deadline=None)
    def test_derivative_ladder_single_step(self, n, lam, alpha):
        lhs = from_series(GegenbauerSpec(n, lam, alpha)).d_alpha()
        rhs = from_series(GegenbauerSpec(n - 1, lam + 1, alpha)).scale(2 * lam, power=1)
        assert lhs == rhs


class TestUltraspherical:
    def test_matches_shifted_weight(self):
        spec = UltrasphericalSpec(3, HALF, HALF)
        assert spec.lam == ONE
        assert ultraspherical(spec) == from_series(GegenbauerSpec(3, ONE, HALF))

    def test_beta_validation(self):
        with pytest.raises(ParameterError):
            UltrasphericalSpec(2, Fraction(-1, 2), HALF)

    @given(st.integers(0, 12),
           st.sampled_from([Fraction(-1, 3), Fraction(0), HALF, Fraction(3, 2)]), orders)
    @settings(max_examples=20, deadline=None)
    def test_rodrigues_kernel_has_grade_n(self, n, beta, alpha):
        # n conformable derivatives contribute a^n, cancelled by the prefactor
        assert _rodrigues_kernel(alpha, n, beta).grade == n

    def test_rodrigues_frozen_value(self):
        # series gives 2 u; the route carries the extra 2^b G(b+1/2)/sqrt(pi)
        coeffs = ultraspherical_rodrigues(UltrasphericalSpec(1, HALF, ONE))
        assert coeffs[0] == 0.0
        assert coeffs[1] == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), rel=1e-12)

    @pytest.mark.parametrize("beta", [Fraction(0), HALF, Fraction(3, 2)])
    def test_rodrigues_scales_series_by_constant(self, beta):
        # measured, degree-independent ratio: 2^b Gamma(b + 1/2) / sqrt(pi)
        expected = 2.0 ** float(beta) * math.gamma(float(beta) + 0.5) / math.sqrt(math.pi)
        for n in range(5):
            spec = UltrasphericalSpec(n, beta, HALF)
            numeric = ultraspherical_rodrigues(spec)
            exact = [float(c) for c in ultraspherical(spec).rational_coeffs()]
            exact += [0.0] * (len(numeric) - len(exact))
            for got, base in zip(numeric, exact):
                if base == 0.0:
                    assert abs(got) < 1e-10
                else:
                    assert got / base == pytest.approx(expected, rel=1e-10)


class TestFirstKind:
    @pytest.mark.parametrize("alpha", [HALF, ONE])
    def test_rodrigues_equals_recurrence_exactly(self, alpha):
        for n in range(41):
            assert chebyshev_t_rodrigues(n, alpha) == chebyshev_t(n, alpha)

    def test_endpoint_is_one(self):
        for n in range(9):
            assert chebyshev_t(n, HALF).coefficient_sum() == 1

    def test_classical_evaluation(self):
        # T_5(cos t) = cos(5 t)
        poly = chebyshev_t(5, ONE)
        for t in (0.3, 1.1, 2.5):
            assert poly.evaluate(math.cos(t)) == pytest.approx(math.cos(5 * t), abs=1e-13)
