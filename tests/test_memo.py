"""The per-process memos of order-free exact work, each keyed by plain
integers: a weight lam = p/q and an order a = r/s are checked where they
enter and stand as their integers in lowest terms.  Each construction route
keeps its own finished polynomial per (n, p, q) and returns that object for
every spec of that pair, whatever order it is then evaluated at, and the
float form of each member per (n, p, q) serves every order it is evaluated
at; the inner products keep one cell per (p, q, r, s) and one moment-weighted vector per
(n, p, q), the normalization audit one finished row per (n, p, q, r, s),
and the fixed-degree suites of `verify` their oracles: the first-kind
members and closed forms per degree, the endpoint closed form per
(n, p, q), and the generating-function rows and special-cases float
columns per (p, q) and sweep bounds.  No memo hashes a Fraction."""
import importlib
import inspect
import math
import pkgutil
from fractions import Fraction

import pytest

import congeg
import congeg.gegenbauer as gegenbauer
from congeg.alphapoly import AlphaPoly
import congeg.quadrature as quadrature
import congeg.verify as verify
from congeg.cli import main
from congeg.gegenbauer import (GegenbauerSpec, classical_oracle, from_recurrence,
                               from_rodrigues, from_series)
from congeg.quadrature import (conformable_inner_product, normalization_audit,
                               orthogonality_check)
from congeg.verify import (STANDARD_GRID, ParamGrid, check_constructor_agreement,
                           run_asserted_checks, run_recorded_audits)

ROUTES = {"series": (from_series, "_series_coeffs"),
          "recurrence": (from_recurrence, "_recurrence_coeffs"),
          "rodrigues": (from_rodrigues, "_rodrigues_coeffs")}
# keyed by a weight and a whole sweep's bounds, or by a weight and an
# order, rather than by degree: a run asks each for a few entries
SWEEP_MEMOS = [verify._generating_rows, verify._special_reference, quadrature._cells]
MEMOS = [getattr(gegenbauer, name) for _, name in ROUTES.values()] + [
    gegenbauer._member_form, gegenbauer._oracle_coeffs, gegenbauer._chebyshev_t_coeffs,
    quadrature._moment_weighted,
    quadrature._audit_row, verify._endpoint_value, verify._chebyshev_t_closed, *SWEEP_MEMOS]


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
    c = from_series(GegenbauerSpec(m, lam))
    d = from_series(GegenbauerSpec(n, lam))
    moments, mu_den = quadrature._scaled_moments(*lam.as_integer_ratio(),
                                                 (len(c.nums) + len(d.nums)) // 2)
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

    def skewed(n, p, q):
        poly = kernel(n, p, q)
        if n != 5:
            return poly
        return AlphaPoly._of([poly.nums[0] + 1, *poly.nums[1:]], poly.den, poly.grade)

    monkeypatch.setattr(gegenbauer, name, skewed)
    report = check_constructor_agreement(ParamGrid(n_max=6))
    assert report.status == "fail"
    spec = GegenbauerSpec(5, STANDARD_GRID.lambdas[0])
    assert report.witness.startswith(f"{spec}: ")
    assert f"{route} = {public(spec)}" in report.witness


@pytest.mark.parametrize("route", ROUTES)
def test_orders_share_one_build(fresh_memos, route):
    # a spec has no order, so a second spec of the same (n, weight), the
    # weight written another way, gets the first build
    public, name = ROUTES[route]
    memo = getattr(gegenbauer, name)
    first = public(GegenbauerSpec(9, Fraction(5, 2)))
    hits = memo.cache_info().hits
    again = public(GegenbauerSpec(9, "5/2"))
    assert memo.cache_info().hits == hits + 1
    assert first is again is memo(9, 5, 2)


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
        if memo in SWEEP_MEMOS:
            continue  # a few entries a run: the next test's second run must find them all
        is_quadrature = memo.__module__ == quadrature.__name__
        assert size >= (len(weights) * 97 if is_quadrature else cycle), memo


def test_every_memo_is_reused_by_the_asserted_suites(fresh_memos):
    # a memo that two full runs never hit keeps work nobody asks for again
    for _ in range(2):
        misses = [memo.cache_info().misses for memo in MEMOS]
        run_asserted_checks(ParamGrid(n_max=12))
    assert all(memo.cache_info().hits > 0 for memo in MEMOS), [
        (memo.__name__, memo.cache_info()) for memo in MEMOS]
    # nor is anything of the first run evicted before the second asks again
    assert [memo.cache_info().misses for memo in MEMOS] == misses, [
        (memo.__name__, memo.cache_info()) for memo in MEMOS]


def test_every_bounded_memo_is_listed():
    # a bounded memo missing from MEMOS escapes the size and reuse checks
    for info in pkgutil.iter_modules(congeg.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"congeg.{info.name}")
        for name, value in vars(module).items():
            cache_info = getattr(value, "cache_info", None)
            if cache_info is not None and cache_info().maxsize is not None:
                assert any(value is memo for memo in MEMOS), f"{module.__name__}.{name}"


def test_no_fraction_is_hashed_cold_or_warm(monkeypatch, capsys, fresh_memos):
    # every memo is keyed by integers: a weight or an order is checked where
    # it enters and then stands as its integer ratio
    hashed = []

    def refuse(self):
        hashed.append(self)
        raise AssertionError(f"Fraction {self} hashed")

    monkeypatch.setattr(Fraction, "__hash__", refuse)
    verify._recorded_audits.cache_clear()
    for _ in range(2):  # every memo cold, then warm
        assert all(r.passed for r in run_asserted_checks(ParamGrid(n_max=12)))
        assert len(run_recorded_audits()) == 5
        assert normalization_audit(12, (1, Fraction(5, 2), "3"), (Fraction(1, 4), 1.0)).passed
        assert orthogonality_check(12, (1, Fraction(5, 2), "3"), (Fraction(1, 4), 1.0)).passed
        assert conformable_inner_product(4, 4, Fraction(5, 2), Fraction(1, 2)).value > 0
        assert main(["eval", "--n", "5", "--lambda", "5/2", "--alpha", "1/2",
                     "--x", "-1", "-0.0", "0.3", "1"]) == 0
        assert main(["plot-data", "--n", "3", "--samples", "3", "--alpha", "1/2",
                     "--alpha", "1", "--alpha", "0.5"]) == 0
    assert hashed == []
    assert capsys.readouterr().out.count("x,alpha,value") == 4
