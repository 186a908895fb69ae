"""The per-process memos of order-free integer work: each construction route
keeps its own, keyed by (n, weight); the inner products keep one
moment-weighted vector per (n, weight)."""
import inspect
import math
from fractions import Fraction

import pytest

import congeg.gegenbauer as gegenbauer
import congeg.quadrature as quadrature
from congeg.gegenbauer import (GegenbauerSpec, classical_oracle, from_recurrence,
                               from_rodrigues, from_series)
from congeg.quadrature import conformable_inner_product, orthogonality_check
from congeg.verify import (STANDARD_GRID, ParamGrid, check_constructor_agreement,
                           run_asserted_checks)

ROUTES = {"series": (from_series, "_series_coeffs"),
          "recurrence": (from_recurrence, "_recurrence_coeffs"),
          "rodrigues": (from_rodrigues, "_rodrigues_coeffs")}
MEMOS = [getattr(gegenbauer, name) for _, name in ROUTES.values()] + [
    gegenbauer._oracle_coeffs, quadrature._moment_weighted]


@pytest.fixture
def fresh_memos():
    for memo in MEMOS:
        memo.cache_clear()
    yield
    for memo in MEMOS:
        memo.cache_clear()


def _convolution_reference(m, n, lam, alpha):
    """<C_m, C_n> by the pairwise O(m n) convolution of the two coefficient
    lists against the moments, grouped by k = (i + j) / 2, as it was summed
    before the moment-weighted vectors; the same rational, rounded once."""
    c = from_series(GegenbauerSpec(m, lam, 1))
    d = from_series(GegenbauerSpec(n, lam, 1))
    moments, mu_den = quadrature._scaled_moments(lam, (len(c.nums) + len(d.nums)) // 2)
    total = 0
    for k, moment in enumerate(moments):
        lo, hi = max(0, 2 * k - len(d.nums) + 1), min(len(c.nums), 2 * k + 1)
        total += moment * sum(c.nums[i] * d.nums[2 * k - i] for i in range(lo, hi))
    base = lam - math.floor(lam)
    if base == 0:
        beta = math.pi
    elif base == Fraction(1, 2):
        beta = 2.0
    else:
        beta = (math.sqrt(math.pi) * math.gamma(float(base + Fraction(1, 2)))
                / math.gamma(float(base + 1)))
    return total / (mu_den * c.den * d.den) * beta / float(alpha)


@pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(1), Fraction(5, 2),
                                 Fraction(3), Fraction(2, 7)])
def test_inner_product_bit_identical_to_convolution(lam):
    for alpha in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        for m in range(41):
            for n in range(41):
                assert (conformable_inner_product(m, n, lam, alpha).value
                        == _convolution_reference(m, n, lam, alpha)), (m, n, alpha)


@pytest.mark.parametrize("route", ROUTES)
def test_each_route_computes_its_own_integers(monkeypatch, fresh_memos, route):
    # skew one coefficient of one route's degree-5 members: the sweep must
    # catch it and print that route's own (skewed) polynomial
    public, name = ROUTES[route]
    kernel = getattr(gegenbauer, name)

    def skewed(n, lam):
        nums, den = kernel(n, lam)
        return ((nums[0] + 1,) + nums[1:], den) if n == 5 else (nums, den)

    monkeypatch.setattr(gegenbauer, name, skewed)
    report = check_constructor_agreement(ParamGrid(n_max=6))
    assert report.status == "fail"
    spec = GegenbauerSpec(5, STANDARD_GRID.lambdas[0], STANDARD_GRID.alphas[0])
    assert report.witness.startswith(f"{spec}: ")
    assert f"{route} = {public(spec)}" in report.witness


@pytest.mark.parametrize("route", ROUTES)
def test_orders_share_one_build(fresh_memos, route):
    public, name = ROUTES[route]
    memo = getattr(gegenbauer, name)
    quarter = public(GegenbauerSpec(9, Fraction(5, 2), Fraction(1, 4)))
    hits = memo.cache_info().hits
    one = public(GegenbauerSpec(9, Fraction(5, 2), 1))
    assert memo.cache_info().hits == hits + 1
    assert (quarter.nums, quarter.den) == (one.nums, one.den)
    assert (quarter.alpha, one.alpha) == (Fraction(1, 4), 1)


def test_classical_oracle_returns_a_new_list(fresh_memos):
    first = classical_oracle(4, 3)
    first.append(Fraction(7))
    assert classical_oracle(4, 3) == [6, 0, -120, 0, 240]
    assert gegenbauer._oracle_coeffs.cache_info().hits == 1


def test_memos_are_bounded_and_cover_a_sweep_at_degree_96():
    # each suite of a run scans the degrees of every weight once; an LRU
    # memo smaller than that cycle would never hit in the next suite
    cycle = len(STANDARD_GRID.lambdas) * 97
    weights = inspect.signature(orthogonality_check).parameters["lambdas"].default
    for memo in MEMOS:
        size = memo.cache_info().maxsize
        assert size is not None
        is_quadrature = memo.__module__ == quadrature.__name__
        assert size >= (len(weights) * 97 if is_quadrature else cycle), memo


def test_every_memo_is_reused_by_the_asserted_suites(fresh_memos):
    # a memo that two full runs never hit keeps work nobody asks for again
    for _ in range(2):
        run_asserted_checks(ParamGrid(n_max=12))
    assert all(memo.cache_info().hits > 0 for memo in MEMOS), [
        (memo.__name__, memo.cache_info()) for memo in MEMOS]
