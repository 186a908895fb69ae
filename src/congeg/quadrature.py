"""Weighted inner products for the conformable family, plus the
normalization audit.

The measure on [-1, 1] is d^a x = |x|^(a-1) dx with weight
(1 - x^(2a))^(lam - 1/2) under the signed-power convention
x^a = sign(x) |x|^a.  Substituting u = sign(x) |x|^a reduces the inner
product to (1/a) times the classical Gegenbauer inner product on [-1, 1].

The substituted route is the primary one and does no quadrature: the
weight (1 - u^2)^(lam - 1/2) has the moments mu_2k = mu_0 (1/2)_k / (lam+1)_k,
with mu_0 = B(1/2, lam + 1/2) and odd moments zero, so each inner product
is an exact rational sum times one float constant.

The direct x-domain route is kept as an independent floating-point check;
its integrand is not polynomial.  It applies one fixed tanh-sinh rule
(Takahasi & Mori 1974) to each half-interval, whose double-exponential
node spacing absorbs the integrable singularities at 0 and +-1 without
grading, and judges it against the nested rule of twice the step,
relative to the integrand's L1 mass so that exact zeros (orthogonality)
pass.  It imports numpy on its first call; the only other user is the
column-wise float evaluation of long point lists (see `alphapoly`).

Three memos serve the sweeps, keyed by integers: a weight lam = p/q and an
order a = r/s, in lowest terms, are checked where they enter.  `_cells`
keeps one cell per (p, q, r, s): the order as a float, B(1/2, base + 1/2)
and the exact shifts of the gamma arguments; every inner product and audit
row at that weight and order reuses it.  `_moment_weighted` keeps W_n, C_n's
coefficients weighted by the moments, per (n, p, q): every inner product of
degree n reuses it, and the orthogonality proof reads it once per weight for
every order, with no float at all.  `_audit_row` keeps each finished audit
row per (n, p, q, r, s), and the row keeps its CSV line once formatted.
Nothing else is kept.  A `_moment_weighted` miss rebuilds the moments for
its length in integers, about 20 us at degree 32, 40 us at 48 and 110 us at
96 for weights 1 and 3 (2-core x86-64, Python 3.11), a fifth or less of the
miss: its n^2/4 big-integer products cost the rest, and past degree ~200
they are nearly all of it.  The public formulas compute their gamma
values per call from integers; the audit computes them once per row.
"""
from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from typing import Iterable, Sequence

from .alphapoly import (AccuracyError, DomainError, RationalLike, _Record, _as_cases,
                        _as_count, _as_order, _as_tolerance, _rising)
from .gegenbauer import _check_weight, _series_coeffs
from .report import VerificationReport

__all__ = [
    "AccuracyError",
    "AuditRow",
    "QuadratureResult",
    "audit_rows_to_csv",
    "classical_norm",
    "conformable_inner_product",
    "conformable_inner_product_direct",
    "normalization_audit",
    "normalization_closed_form",
    "normalization_gamma_product",
    "orthogonality_check",
]

_HALF = Fraction(1, 2)
_REL_TOL = 1e-10    # |I_h - I_2h| allowed, relative to the integrand's L1 mass
_STEPS = 32         # tanh-sinh step h = 1/_STEPS on t in [-_T_MAX, _T_MAX]
_T_MAX = 5


class QuadratureResult(_Record):
    """Value, a nonnegative error estimate, and the number of evaluations."""

    _fields = ("value", "error", "nodes_used")

    def __init__(self, value: float, error: float, nodes_used: int) -> None:
        self.__dict__.update(value=value, error=error, nodes_used=nodes_used)


# ---------------------------------------------------------------------------
# the direct route's tanh-sinh rule


@cache
def _tanh_sinh_nodes():
    """log x and the weights of the tanh-sinh rule on (0, 1), nodes
    x = 1/(1 + exp(-2s)) with s = (pi/2) sinh t, t = k h.  The weight
    h dx/dt = h pi cosh t x (1 - x) is h pi cosh t / (2 cosh s)^2.  Built on
    first use, not at import; read-only, since every call shares them."""
    import numpy as np
    t = np.arange(-_T_MAX * _STEPS, _T_MAX * _STEPS + 1) / _STEPS
    s = np.pi / 2 * np.sinh(t)
    # log x = -log1p(exp(-2s)) straight from s: near 0 a rounded 1 - x has
    # lost the digits of x, near 1 a rounded x has lost those of 1 - x
    log_x = -np.logaddexp(0.0, -2.0 * s)
    weights = np.pi / _STEPS * np.cosh(t) / (2.0 * np.cosh(s)) ** 2
    log_x.flags.writeable = weights.flags.writeable = False
    return log_x, weights


def _gegenbauer_values(top: int, lam: float, u) -> list:
    """C_0(u) .. C_top(u) by the classical three-term recurrence in floats;
    the scalar seeds broadcast against u, so this needs no numpy itself.
    The direct route and the special-cases suite evaluate through it."""
    prev, values = 0.0, [1.0]
    for k in range(top):
        cur = values[-1]
        values.append((2 * (k + lam) * u * cur - (k + 2 * lam - 1) * prev) / (k + 1))
        prev = cur
    return values


# ---------------------------------------------------------------------------
# inner products


def _scaled_moments(p: int, q: int, count: int) -> tuple[tuple[int, ...], int]:
    """mu_2k / B(1/2, base + 1/2) for k < count, as integers over one common
    denominator.  mu_2k = mu_0 (1/2)_k / (lam + 1)_k, and mu_0 = B(1/2, lam + 1/2)
    is B(1/2, base + 1/2) (base + 1/2)_s / (base + 1)_s for s = floor(lam),
    base = lam - s, so the rational part of every moment is exact here.

    In integers, with lam = p/q and base = b/q (b = p mod q): factor t of the
    Pochhammer quotient is (b/q + 1/2 + t) / (b/q + 1 + t)
    = (2b + (2t + 1) q) / (2 (b + (t + 1) q)), so over t < s it is two
    rising products, and mu_(2k+2) / mu_2k
    = (k + 1/2) / (p/q + 1 + k) = (2k + 1) q / (2 (p + q + qk)).  One gcd per
    step keeps each moment in lowest terms, as a Fraction would be, and the
    common denominator is the lcm of theirs."""
    b, s = p % q, p // q
    num, den = _rising(2 * b + q, 2 * q, s), _rising(b + q, q, s) << s
    nums, dens = [], []
    for k in range(count):
        g = math.gcd(num, den)
        num //= g
        den //= g
        nums.append(num)
        dens.append(den)
        num *= (2 * k + 1) * q
        den *= 2 * (p + q + q * k)
    common = math.lcm(*dens)
    return tuple(v * (common // d) for v, d in zip(nums, dens)), common


@lru_cache(maxsize=256)
def _moment_weighted(n: int, p: int, q: int) -> tuple[tuple[int, ...], int]:
    """W_i = <C_n, u^i> / B(1/2, base + 1/2) for i <= n, the sum over j,
    i + j even, of d_j mu_((i+j)/2) / B(1/2, base + 1/2) with d the
    coefficients of C_n^(lam), as integers over one common denominator:
    <C_m, C_n> for any m <= n is the dot product of C_m's coefficients with
    W.  256 entries hold a sweep's 2 weights to degree 96.

    Each W_i is still that sum over the series coefficients, entry by entry,
    so the orthogonality proof reads the same integers; it is only formed as
    one C-level dot product of the coefficients d_j, j = i mod 2, i mod 2 + 2,
    ..., with the moments from index ceil(i/2) on.  A member with fewer
    coefficients (a defective one) just gives shorter sums."""
    d = _series_coeffs(n, p, q)
    moments, mu_den = _scaled_moments(p, q, n + 1)
    return (tuple(sum(map(operator.mul, d.nums[i % 2::2], moments[(i + 1) // 2:]))
                  for i in range(n + 1)),
            mu_den * d.den)


def _beta(p: int, q: int) -> float:
    """B(1/2, base + 1/2) for base = b/q = lam - floor(lam) in [0, 1), lam = p/q:
    the one float factor of every moment of the weight."""
    b = p % q
    if b == 0:
        return math.pi              # B(1/2, 1/2)
    if 2 * b == q:
        return 2.0                  # B(1/2, 1)
    return math.sqrt(math.pi) * math.gamma((2 * b + q) / (2 * q)) / math.gamma((b + q) / q)


def _checked_gamma(num: int, den: int) -> float:
    """Gamma(num / den); DomainError at a pole, an integer <= 0."""
    if den == 1 and num <= 0:
        raise DomainError(f"gamma pole at argument {num}")
    # int / int is correctly rounded, as float(Fraction(num, den)) is
    return math.gamma(num / den)


class _Cell:
    """One checked weight lam = p/q and order a = r/s and what the inner
    product and the normalization formulas need of them that does not
    depend on the degree: p and q, the order as a float, B(1/2, base + 1/2),
    and the exact integer pairs of the gamma arguments 5/2 - a - 1/a and of
    the shifts s and t of the rows' n + lam + 3/2 - 1/a = n + s and
    n + lam + 2 - a = n + t.  `_cells` keeps one per (p, q, r, s), which
    every inner product and audit row at that pair reuses.

    No gamma value is kept here: the formulas compute their degree-free
    gamma values and powers per call, so a pole raises a fresh DomainError on
    every use of the public formulas.  The audit keeps each finished row per
    (n, p, q, r, s) in `_audit_row`, a pole as the NaN it records, and an
    overflow raises again on every audit that reaches its row."""

    def __init__(self, p: int, q: int, r: int, s: int):
        self.p, self.q = p, q
        self.lam, self.alpha = Fraction(p, q), Fraction(r, s)
        self.a = r / s              # correctly rounded, as float(alpha) is
        self.beta = _beta(p, q)
        inv = 1 / self.alpha
        self.const, self.s, self.t = (v.as_integer_ratio() for v in (
            5 * _HALF - self.alpha - inv, self.lam + 3 * _HALF - inv, self.lam + 2 - self.alpha))


_cells = lru_cache(maxsize=256)(_Cell)


def _cell(lam: RationalLike, alpha: RationalLike) -> _Cell:
    """The cell of (weight, order), checked first and then looked up by
    their integer ratios, so equal values share one cell however written."""
    return _cells(*_check_weight(lam).as_integer_ratio(), *_as_order(alpha).as_integer_ratio())


def _inner_product(m: int, n: int, cell: _Cell) -> float:
    """<C_m, C_n> for checked degrees m <= n."""
    c = _series_coeffs(m, cell.p, cell.q)
    weighted, w_den = _moment_weighted(n, cell.p, cell.q)
    # sum over i + j even of c_i d_j mu_(i+j) is sum_i c_i W_i; only
    # B(1/2, base + 1/2), with base in [0, 1), is left in floats.
    # int / int is correctly rounded, so this is the exact sum rounded once
    return sum(map(operator.mul, c.nums, weighted)) / (c.den * w_den) * cell.beta / cell.a


def conformable_inner_product(
        m: int, n: int, lam: RationalLike,
        alpha: RationalLike) -> QuadratureResult:
    """<C_m, C_n> under the conformable weighted measure, through the exact
    substitution u = sign(x) |x|^a: the classical integral, an exact sum of
    coefficient products against the weight's moments, divided by a.

    The error is a bound on the rounding of the final float scaling (0.0
    when the sum is exactly zero); no evaluation nodes are used.  A value
    past the float range, from the exact sum's quotient or from the scaling,
    raises AccuracyError."""
    cell = _cell(lam, alpha)
    m, n = sorted((_as_count(m, "degree"), _as_count(n, "degree")))
    try:
        value = _inner_product(m, n, cell)
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise AccuracyError(f"<C_{m}, C_{n}> at weight {cell.lam} and order {cell.a!r} "
                            "lies past the float range")
    # two math.gamma calls (measured within 7 units of 2^-53 on [1/2, 2])
    # plus about six correctly rounded steps stay under 32 units of 2^-53
    return QuadratureResult(value, 16 * sys.float_info.epsilon * abs(value), 0)


def conformable_inner_product_direct(
        m: int, n: int, lam: RationalLike,
        alpha: RationalLike) -> QuadratureResult:
    """The same inner product integrated directly in x (no substitution);
    independent consistency check for the substituted route.

    One fixed tanh-sinh rule (h = 1/32, t in [-5, 5]) on each half-interval,
    642 nodes in all; its double-exponential decay absorbs the x^(a-1)
    singularity at 0 and the weight's at +-1.  The polynomials come from
    the float three-term recurrence, not from the exact constructors.  The
    error is |I_h - I_2h| against the nested h = 1/16 rule plus the rounding
    of the sum, nodes * eps * L1 mass; AccuracyError when |I_h - I_2h|
    exceeds 1e-10 of the L1 mass.  Over weights 1/2, 1, 5/2, 3 and orders
    1/4, 1/2, 3/4, 1 it answers every pair to degree 27 and refuses 458 of
    the 13776 pairs with m <= n <= 40, the first (28, 28) at weight 3, order
    1: the nested rule stops resolving, yet each refusal's best estimate is
    within 2.2e-15 of sqrt(<C_m, C_m> <C_n, C_n>) of the exact value."""
    import numpy as np
    _as_count(m, "degree")
    _as_count(n, "degree")
    lam = _check_weight(lam)
    a = float(_as_order(alpha))
    log_x, w = _tanh_sinh_nodes()
    xa = np.exp(a * log_x)
    # |x|^(a-1) (1 - x^(2a))^(lam - 1/2), the same on both halves
    measure = (np.exp((a - 1.0) * log_x)
               * (-np.expm1(2.0 * a * log_x)) ** (float(lam) - 0.5))
    values = _gegenbauer_values(max(m, n), float(lam), np.concatenate((xa, -xa)))
    f = np.tile(w * measure, 2) * values[m] * values[n]
    fine = float(f.sum())
    # the nested h = 1/16 rule: every other node from t = -5 on each half
    coarse = 2.0 * float(f.reshape(2, -1)[:, ::2].sum())
    mass = float(np.abs(f).sum())
    diff = abs(fine - coarse)
    result = QuadratureResult(fine, diff + f.size * sys.float_info.epsilon * mass, f.size)
    if diff > _REL_TOL * mass:
        raise AccuracyError(
            f"tanh-sinh rule differs from its nested h = 1/16 rule by {diff:.3e}, "
            f"over rel_tol={_REL_TOL} of the integrand's L1 mass", result)
    return result


# ---------------------------------------------------------------------------
# normalization formulas


# Each public formula checks its arguments and calls its kernel, which the
# audit calls too.  A kernel takes the degree and a cell (the classical norm,
# which has no order, the weight's p and q) and builds every gamma argument
# and power from integers.  The two candidate formulas share their
# degree-dependent gammas, which `_degree_quotients` takes as quotients of
# partners: their products on their own pass the float range from about
# degree 70, while each quotient stays finite as long as every single gamma
# is.


def _classical_norm(n: int, p: int, q: int) -> float:
    return (math.pi * 2.0 ** ((q - 2 * p) / q) * math.gamma(2 * p / q + n)
            / (math.factorial(n) * ((n * q + p) / q) * math.gamma(p / q) ** 2))


def _degree_quotients(n: int, cell: _Cell) -> float:
    """G(n+2lam)/n! * G(n+lam)/G(n+lam+1/2) * G(n+s)/G(n+t)."""
    p, q = cell.p, cell.q
    (s_num, s_den), (t_num, t_den) = cell.s, cell.t
    return (math.gamma((n * q + 2 * p) / q) / math.factorial(n)
            * (math.gamma((n * q + p) / q) / math.gamma((2 * (n * q + p) + q) / (2 * q)))
            * (_checked_gamma(n * s_den + s_num, s_den)
               / math.gamma((n * t_den + t_num) / t_den)))


def _closed_form(n: int, cell: _Cell) -> float:
    p, q = cell.p, cell.q
    return (2.0 ** ((q - 2 * p) / q) * cell.a ** (-2.0 / cell.a)
            * _checked_gamma(*cell.const) / math.gamma(p / q) ** 2
            * _degree_quotients(n, cell))


def _gamma_product(n: int, cell: _Cell) -> float:
    p, q = cell.p, cell.q
    return (cell.a ** (0.5 - 2.0 / cell.a) * math.gamma((2 * p + q) / (2 * q))
            * _checked_gamma(*cell.const) / (math.gamma(2 * p / q) * math.gamma(p / q))
            * _degree_quotients(n, cell))


def _or_nan(formula, n: int, cell: _Cell) -> float:
    """A kernel's value, or NaN at one of its gamma poles (as the audit records it)."""
    try:
        return formula(n, cell)
    except DomainError:
        return math.nan


def _in_range(kernel, n: int, *args, name: str, lam: Fraction, order=None) -> float:
    """kernel(n, *args) for the public formula `name`; AccuracyError where a
    float gamma value or power on the way overflows (the value may not)."""
    try:
        return kernel(n, *args)
    except OverflowError:
        at = f"degree {n}, weight {lam}" + ("" if order is None else f", order {order!r}")
        raise AccuracyError(f"{name} at {at}: a float gamma value or power on the way "
                            "lies past the float range") from None


def normalization_closed_form(n: int, lam, alpha) -> float:
    """Closed-form candidate for the diagonal inner product:

        2^(1-2 lam) a^(-2/a) G(n+2lam) G(lam+n) G(5/2 - a - 1/a)
        G(n+lam+3/2 - 1/a) / (n! G(lam)^2 G(lam+n+1/2) G(n+lam+2-a))

    Kept exactly as stated so the audit can compare it against the diagonal;
    known to disagree (the audit flags it) and to hit gamma poles at some
    orders, e.g. a = 1/2.  AccuracyError where a float gamma value or power
    on the way lies past the float range."""
    _as_count(n, "degree")
    cell = _cell(lam, alpha)
    return _in_range(_closed_form, n, cell, name="closed form", lam=cell.lam, order=cell.a)


def normalization_gamma_product(n: int, lam, alpha) -> float:
    """Pre-simplification product form of the same diagonal value:

        a^(1/2 - 2/a) G(lam+1/2) G(n+2lam) G(lam+n) G(5/2 - a - 1/a)
        G(n+lam+3/2 - 1/a) / (n! G(2lam) G(lam+n+1/2) G(lam) G(n+lam+2-a))

    Differs from the closed form by sqrt(pi) * a^(1/2) (a duplication-step
    slip in the closed form); at order 1 it reduces to the classical value.
    AccuracyError as for the closed form."""
    _as_count(n, "degree")
    cell = _cell(lam, alpha)
    return _in_range(_gamma_product, n, cell, name="product form", lam=cell.lam, order=cell.a)


def classical_norm(n: int, lam) -> float:
    """Classical Gegenbauer diagonal value
    pi 2^(1-2lam) G(n+2lam) / (n! (n+lam) G(lam)^2); the substitution
    predicts the conformable diagonal as this divided by the order.
    AccuracyError as for the closed form."""
    _as_count(n, "degree")
    lam = _check_weight(lam)
    return _in_range(_classical_norm, n, *lam.as_integer_ratio(), name="classical norm", lam=lam)


# ---------------------------------------------------------------------------
# sweeps


def orthogonality_check(
        n_max: int = 8,
        lambdas: Sequence[RationalLike] = (Fraction(1), Fraction(3)),
        alphas: Sequence[RationalLike] = (Fraction(1, 2), Fraction(1))) -> VerificationReport:
    """Each C_n, n <= n_max, is orthogonal to every polynomial of lower
    degree and has a positive diagonal, proved in integers once per weight:
    W_n[i] = 0 for every i < n (see `_moment_weighted`) and c_n W_n[n] > 0.
    The order only divides each integral by a, so the proof holds at every
    order, and the residual is exactly 0.0.  The orders are checked and
    printed in the grid but do not enter the proof.  Every weight, then
    every order, is checked first, and the grid prints the checked values;
    a failure's witness names n, i and the weight."""
    _as_count(n_max, "n_max")
    lambdas = tuple(map(_check_weight, _as_cases(lambdas, "weights")))
    alphas = tuple(map(_as_order, _as_cases(alphas, "orders")))
    weights = {lam.as_integer_ratio(): lam for lam in lambdas}
    grid = (f"m != n <= {n_max}, weight in {{{', '.join(str(v) for v in lambdas)}}}, "
            f"order in {{{', '.join(str(a) for a in alphas)}}}")
    for (p, q), lam in weights.items():
        for n in range(n_max + 1):
            weighted, _ = _moment_weighted(n, p, q)
            nums = _series_coeffs(n, p, q).nums
            i = next((i for i in range(n) if weighted[i]), None)
            if i is not None:
                witness = (f"n={n}, i={i}, weight={lam}: <C_n, u^i> is not zero, "
                           f"so C_n is not orthogonal to degree {i}")
            # c_n is 0 for a (defective) member that falls short of degree n
            elif (nums[n] if n < len(nums) else 0) * weighted[n] <= 0:
                witness = f"n={n}, i={n}, weight={lam}: <C_n, C_n> is not positive"
            else:
                continue
            return VerificationReport("orthogonality", grid, "fail", witness=witness)
    return VerificationReport(
        "orthogonality", grid, "numeric-pass", max_residual=0.0,
        notes=(f"off-diagonals proved exactly zero for every order and diagonals "
               f"proved positive, in integers, for degrees 0 to {n_max}"))


class AuditRow(_Record):
    """One normalization-audit line: the exact diagonal inner product (field
    `quadrature`, the audit CSV's column name) against the three formulas.

    closed_form / gamma_product are NaN where the formula hits a gamma pole.
    """

    _fields = ("n", "lam", "alpha", "quadrature", "closed_form", "gamma_product", "derived",
               "rel_diff_quadrature_vs_derived")

    def __init__(self, n: int, lam: Fraction, alpha: Fraction, quadrature: float,
                 closed_form: float, gamma_product: float, derived: float,
                 rel_diff_quadrature_vs_derived: float) -> None:
        self.__dict__.update(
            n=n, lam=lam, alpha=alpha, quadrature=quadrature, closed_form=closed_form,
            gamma_product=gamma_product, derived=derived,
            rel_diff_quadrature_vs_derived=rel_diff_quadrature_vs_derived)

    @cached_property
    def _csv_line(self) -> str:
        """The row's CSV line (floats at full repr precision), formatted on
        first use and kept with the row."""
        return ",".join([
            str(self.n), str(self.lam), str(self.alpha), repr(self.quadrature),
            repr(self.closed_form), repr(self.gamma_product), repr(self.derived),
            repr(self.rel_diff_quadrature_vs_derived)])


@lru_cache(maxsize=1024)
def _audit_row(n: int, p: int, q: int, r: int, s: int) -> AuditRow:
    """The audit row of a checked degree n, weight p/q and order r/s, both in
    lowest terms, built once per key from their cell; 1024 rows hold the
    996 of `normalization_audit(165)`.  A formula's pole is kept as NaN; an
    overflow is no row, so it raises DomainError on every call."""
    cell = _cells(p, q, r, s)
    try:
        quad = _inner_product(n, n, cell)
        derived = _classical_norm(n, p, q) / cell.a
        closed = _or_nan(_closed_form, n, cell)
        product = _or_nan(_gamma_product, n, cell)
    except OverflowError:
        raise DomainError(f"n={n}, weight={cell.lam}, order={cell.alpha}: the normalization "
                          f"values overflow a float") from None
    return AuditRow(n, cell.lam, cell.alpha, quad, closed, product, derived,
                    abs(quad - derived) / abs(derived))


# The audit's weights lam = p/q and orders a = r/s, in lowest terms.
_AUDIT_WEIGHTS = ((1, 1), (3, 1))
_AUDIT_ORDERS = ((1, 4), (1, 2), (1, 1))


def normalization_audit(n_max: int = 6, rel_tol: float = 1e-6) -> VerificationReport:
    """Tabulate, for each degree n <= n_max and each weight of
    `_AUDIT_WEIGHTS` and order of `_AUDIT_ORDERS`: the exact diagonal, the
    closed form, the pre-simplification product form, and the
    substitution-derived classical value / order.

    Asserted: the diagonal agrees with the derived value within rel_tol,
    which lies strictly between 0 and 1.
    Recorded: rows where either formula candidate deviates from the derived
    value (or hits a pole) are flagged in the notes, never asserted.

    The rows run weight by weight, order by order, degree by degree.  Each
    row is read from `_audit_row`, which computes a row once per process,
    its gamma values included, with a formula's pole as NaN; a value that
    overflows a float (from degree 166) raises DomainError naming the row on
    every audit.  The flags depend on rel_tol, so they are judged here on
    every call: counted, with only the first one named.
    """
    _as_count(n_max, "n_max")
    _as_tolerance(rel_tol, "rel_tol")
    rows = [_audit_row(n, p, q, r, s)
            for p, q in _AUDIT_WEIGHTS for r, s in _AUDIT_ORDERS for n in range(n_max + 1)]
    flags = [(row, name) for row in rows
             for name, value in (("closed form", row.closed_form),
                                 ("product form", row.gamma_product))
             if math.isnan(value) or abs(value - row.derived) > rel_tol * abs(row.derived)]
    worst = max(rows, key=operator.attrgetter("rel_diff_quadrature_vs_derived"))
    status = "numeric-pass" if worst.rel_diff_quadrature_vs_derived <= rel_tol else "fail"
    summary = (f"{len(flags)} of {2 * len(rows)} formula comparisons flagged "
               "(recorded, not asserted)")
    if flags:
        row, name = flags[0]
        summary += (f"; first: n={row.n}, weight={row.lam}, order={row.alpha} ({name}); the "
                    "product form equals sqrt(pi) * sqrt(order) * closed form, so at order 1 "
                    "only the closed form disagrees (by 1/sqrt(pi))")
    # degree 0 at weight 1 and order 1: the first weight's third order
    anchor = rows[2 * (n_max + 1)]
    if (math.isnan(anchor.closed_form)
            or abs(anchor.closed_form - anchor.derived) > rel_tol * abs(anchor.derived)):
        summary += (f"; flagged at degree 0, weight 1, order 1: closed form "
                    f"{anchor.closed_form!r} vs quadrature {anchor.quadrature!r}")
    return VerificationReport(
        "normalization-audit",
        f"{len(rows)} diagonal entries over (degree, weight, order) triples; "
        f"asserted tolerance {rel_tol:g} relative",
        status,
        max_residual=worst.rel_diff_quadrature_vs_derived,
        witness=None if status == "numeric-pass" else (
            f"n={worst.n}, weight={worst.lam}, order={worst.alpha}: quadrature "
            f"{worst.quadrature!r} vs derived {worst.derived!r}"),
        notes=summary,
        table=tuple(rows),
    )


def audit_rows_to_csv(rows: Iterable[AuditRow]) -> str:
    """Deterministic CSV for the audit table (floats at full repr precision)."""
    return "\n".join(["n,lambda,alpha,quadrature,closed_form,gamma_product,derived,"
                      "rel_diff_quadrature_vs_derived", *(r._csv_line for r in rows)]) + "\n"
