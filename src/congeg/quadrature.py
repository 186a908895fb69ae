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
pass.  It is the package's one user of numpy, imported on its first call.

Two memos serve the sweeps.  `_cells` keeps one checked cell per
(weight, order): the order as a float, B(1/2, base + 1/2) and the exact
shifts of the gamma arguments; every pair of an orthogonality sweep and
every row of an audit at that weight and order reuses it.
`_moment_weighted` keeps C_n's coefficients weighted by the moments per
(n, weight); every m <= n pair of a sweep, and every order, reuses it.
Nothing else is kept: the moments are built inside a `_moment_weighted`
miss, each for a new length, and the formulas compute their gamma values
per call from integers, which costs no measurable time.
"""
from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from typing import Iterable, Optional, Sequence

from .alphapoly import DomainError, RationalLike, _as_cases, _as_count, _as_order, pochhammer
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
    "default_audit_grid",
    "normalization_audit",
    "normalization_closed_form",
    "normalization_gamma_product",
    "orthogonality_check",
]

_HALF = Fraction(1, 2)
_REL_TOL = 1e-10    # |I_h - I_2h| allowed, relative to the integrand's L1 mass
_STEPS = 32         # tanh-sinh step h = 1/_STEPS on t in [-_T_MAX, _T_MAX]
_T_MAX = 5


@dataclass(frozen=True)
class QuadratureResult:
    """Value, a nonnegative error estimate, and the number of evaluations."""

    value: float
    error: float
    nodes_used: int


class AccuracyError(RuntimeError):
    """The quadrature's error estimate exceeded its tolerance.

    Carries the best estimate so callers can still inspect it."""

    def __init__(self, message: str, best: QuadratureResult):
        super().__init__(message)
        self.best = best


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


def _scaled_moments(lam: Fraction, count: int) -> tuple[tuple[int, ...], int]:
    """mu_2k / B(1/2, base + 1/2) for k < count, as integers over one common
    denominator.  mu_2k = mu_0 (1/2)_k / (lam + 1)_k, and mu_0 = B(1/2, lam + 1/2)
    is B(1/2, base + 1/2) (base + 1/2)_s / (base + 1)_s for s = floor(lam),
    base = lam - s, so the rational part of every moment is exact here."""
    shift = math.floor(lam)
    base = lam - shift
    moment = pochhammer(base + _HALF, shift) / pochhammer(base + 1, shift)
    moments = []
    for k in range(count):
        moments.append(moment)
        moment *= (k + _HALF) / (lam + 1 + k)
    den = math.lcm(*(v.denominator for v in moments))
    return tuple(v.numerator * (den // v.denominator) for v in moments), den


@lru_cache(maxsize=256)
def _moment_weighted(n: int, lam: Fraction) -> tuple[tuple[int, ...], int]:
    """W_i = sum over j, i + j even, of d_j mu_((i+j)/2) / B(1/2, base + 1/2)
    for i <= n, with d the coefficients of C_n^(lam), as integers over one
    common denominator: <C_m, C_n> for any m <= n is then the dot product of
    C_m's coefficients with W.  256 entries hold a sweep's 2 weights to
    degree 96."""
    d, d_den = _series_coeffs(n, lam)
    moments, mu_den = _scaled_moments(lam, n + 1)
    return (tuple(sum(d[j] * moments[(i + j) // 2] for j in range(i % 2, n + 1, 2))
                  for i in range(n + 1)),
            mu_den * d_den)


def _beta(lam: Fraction) -> float:
    """B(1/2, base + 1/2) for base = lam - floor(lam) in [0, 1): the one
    float factor of every moment of the weight."""
    base = lam - math.floor(lam)
    if base == 0:
        return math.pi              # B(1/2, 1/2)
    if base == _HALF:
        return 2.0                  # B(1/2, 1)
    return (math.sqrt(math.pi) * math.gamma(float(base + _HALF))
            / math.gamma(float(base + 1)))


def _checked_gamma(num: int, den: int) -> float:
    """Gamma(num / den); DomainError at a pole, an integer <= 0."""
    if den == 1 and num <= 0:
        raise DomainError(f"gamma pole at argument {num}")
    # int / int is correctly rounded, as float(Fraction(num, den)) is
    return math.gamma(num / den)


class _Cell:
    """One checked (weight, order) and what the inner product and the
    normalization formulas need of it that does not depend on the degree:
    the order as a float, B(1/2, base + 1/2), and the exact integer pairs of
    the gamma arguments 5/2 - a - 1/a and of the shifts s and t of the rows'
    n + lam + 3/2 - 1/a = n + s and n + lam + 2 - a = n + t.  `_cells`
    keeps one per pair, which every inner product and audit row at that
    pair reuses.

    Nothing else is kept: the formulas compute their degree-free gamma
    values and powers per call, so a pole raises a fresh DomainError on
    every use (an audit row turns it into NaN, an overflow stops the audit)."""

    def __init__(self, lam: RationalLike, alpha: RationalLike):
        self.lam = _check_weight(lam)
        self.alpha = _as_order(alpha)
        self.a = float(self.alpha)
        self.beta = _beta(self.lam)
        inv = 1 / self.alpha
        self.const, self.s, self.t = (v.as_integer_ratio() for v in (
            5 * _HALF - self.alpha - inv, self.lam + 3 * _HALF - inv, self.lam + 2 - self.alpha))


_cells = lru_cache(maxsize=256, typed=True)(_Cell)


def _cell(lam: RationalLike, alpha: RationalLike) -> _Cell:
    """The checked cell of (weight, order), built once per distinct pair.
    The cache is typed, so True never meets the entry of 1; an unhashable
    argument, which is no rational, skips it and fails the checks."""
    try:
        return _cells(lam, alpha)
    except TypeError:
        return _Cell(lam, alpha)


def _inner_product(m: int, n: int, cell: _Cell) -> float:
    """<C_m, C_n> for checked degrees m <= n."""
    c, c_den = _series_coeffs(m, cell.lam)
    weighted, w_den = _moment_weighted(n, cell.lam)
    # sum over i + j even of c_i d_j mu_(i+j) is sum_i c_i W_i; only
    # B(1/2, base + 1/2), with base in [0, 1), is left in floats.
    # int / int is correctly rounded, so this is the exact sum rounded once
    return sum(map(operator.mul, c, weighted)) / (c_den * w_den) * cell.beta / cell.a


def conformable_inner_product(
        m: int, n: int, lam: RationalLike,
        alpha: RationalLike) -> QuadratureResult:
    """<C_m, C_n> under the conformable weighted measure, through the exact
    substitution u = sign(x) |x|^a: the classical integral, an exact sum of
    coefficient products against the weight's moments, divided by a.

    The error is a bound on the rounding of the final float scaling (0.0
    when the sum is exactly zero); no evaluation nodes are used."""
    cell = _cell(lam, alpha)
    m, n = sorted((_as_count(m, "degree"), _as_count(n, "degree")))
    value = _inner_product(m, n, cell)
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
    exceeds 1e-10 of the L1 mass."""
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
# audit calls too.  A kernel takes the degree and a cell, builds every gamma
# argument and power from integers, and multiplies the factors in the order
# of the formula as written.


def _classical_norm(n: int, cell: _Cell) -> float:
    p, q = cell.lam.as_integer_ratio()
    return (math.pi * 2.0 ** ((q - 2 * p) / q) * math.gamma(2 * p / q + n)
            / (math.factorial(n) * ((n * q + p) / q) * math.gamma(p / q) ** 2))


def _closed_form(n: int, cell: _Cell) -> float:
    p, q = cell.lam.as_integer_ratio()
    (s_num, s_den), (t_num, t_den) = cell.s, cell.t
    top = (math.gamma((n * q + 2 * p) / q) * math.gamma((n * q + p) / q)
           * _checked_gamma(*cell.const) * _checked_gamma(n * s_den + s_num, s_den))
    bottom = (math.factorial(n) * math.gamma(p / q) ** 2
              * math.gamma((2 * (n * q + p) + q) / (2 * q))
              * math.gamma((n * t_den + t_num) / t_den))
    return 2.0 ** ((q - 2 * p) / q) * cell.a ** (-2.0 / cell.a) * top / bottom


def _gamma_product(n: int, cell: _Cell) -> float:
    p, q = cell.lam.as_integer_ratio()
    (s_num, s_den), (t_num, t_den) = cell.s, cell.t
    top = (math.gamma((2 * p + q) / (2 * q)) * math.gamma((n * q + 2 * p) / q)
           * math.gamma((n * q + p) / q) * _checked_gamma(*cell.const)
           * _checked_gamma(n * s_den + s_num, s_den))
    bottom = (math.factorial(n) * math.gamma(2 * p / q)
              * math.gamma((2 * (n * q + p) + q) / (2 * q)) * math.gamma(p / q)
              * math.gamma((n * t_den + t_num) / t_den))
    return cell.a ** (0.5 - 2.0 / cell.a) * top / bottom


def _or_nan(formula, n: int, cell: _Cell) -> float:
    """A kernel's value, or NaN at one of its gamma poles (as the audit records it)."""
    try:
        return formula(n, cell)
    except DomainError:
        return math.nan


def normalization_closed_form(n: int, lam, alpha) -> float:
    """Closed-form candidate for the diagonal inner product:

        2^(1-2 lam) a^(-2/a) G(n+2lam) G(lam+n) G(5/2 - a - 1/a)
        G(n+lam+3/2 - 1/a) / (n! G(lam)^2 G(lam+n+1/2) G(n+lam+2-a))

    Kept exactly as stated so the audit can compare it against the diagonal;
    known to disagree (the audit flags it) and to hit gamma poles at some
    orders, e.g. a = 1/2."""
    _as_count(n, "degree")
    return _closed_form(n, _cell(lam, alpha))


def normalization_gamma_product(n: int, lam, alpha) -> float:
    """Pre-simplification product form of the same diagonal value:

        a^(1/2 - 2/a) G(lam+1/2) G(n+2lam) G(lam+n) G(5/2 - a - 1/a)
        G(n+lam+3/2 - 1/a) / (n! G(2lam) G(lam+n+1/2) G(lam) G(n+lam+2-a))

    Differs from the closed form by sqrt(pi) * a^(1/2) (a duplication-step
    slip in the closed form); at order 1 it reduces to the classical value."""
    _as_count(n, "degree")
    return _gamma_product(n, _cell(lam, alpha))


def classical_norm(n: int, lam) -> float:
    """Classical Gegenbauer diagonal value
    pi 2^(1-2lam) G(n+2lam) / (n! (n+lam) G(lam)^2); the substitution
    predicts the conformable diagonal as this divided by the order."""
    _as_count(n, "degree")
    # the value has no order; any valid one gives the weight's cell
    return _classical_norm(n, _cell(lam, 1))


# ---------------------------------------------------------------------------
# sweeps


def orthogonality_check(
        n_max: int = 8,
        lambdas: Sequence[RationalLike] = (Fraction(1), Fraction(3)),
        alphas: Sequence[RationalLike] = (Fraction(1, 2), Fraction(1)),
        tol: float = 1e-8) -> VerificationReport:
    """Off-diagonal inner products vanish relative to the diagonal scale:
    |<C_m, C_n>| <= tol * sqrt(<C_m,C_m> <C_n,C_n>) for all m != n."""
    _as_count(n_max, "n_max")
    lambdas, alphas = _as_cases(lambdas, "weights"), _as_cases(alphas, "orders")
    # every weight and order is checked before any product
    cells = [(lam, alpha, _cell(lam, alpha)) for lam in lambdas for alpha in alphas]
    grid = (f"m != n <= {n_max}, weight in {{{', '.join(str(v) for v in lambdas)}}}, "
            f"order in {{{', '.join(str(a) for a in alphas)}}}")
    worst = 0.0
    witness = None
    for lam, alpha, cell in cells:
        # the cell's own checked values meet their cache entry by identity,
        # where equal ones made afresh by a caller would compare as Fractions
        weight, order = cell.lam, cell.alpha
        diag = [conformable_inner_product(k, k, weight, order).value
                for k in range(n_max + 1)]
        for m_deg in range(n_max + 1):
            for n_deg in range(m_deg + 1, n_max + 1):
                cross = conformable_inner_product(m_deg, n_deg, weight, order).value
                scaled = abs(cross) / math.sqrt(diag[m_deg] * diag[n_deg])
                if scaled > worst:
                    worst = scaled
                    witness = (f"m={m_deg}, n={n_deg}, weight={lam}, order={alpha}: "
                               f"normalized {scaled:.3e}")
    if worst <= tol:
        return VerificationReport(
            "orthogonality", grid, "numeric-pass", max_residual=worst,
            notes=f"largest off-diagonal, normalized by the diagonal scale; tol {tol:g}")
    return VerificationReport("orthogonality", grid, "fail",
                              max_residual=worst, witness=witness)


@dataclass(frozen=True)
class AuditRow:
    """One normalization-audit line: the exact diagonal inner product (field
    `quadrature`, the audit CSV's column name) against the three formulas.

    closed_form / gamma_product are NaN where the formula hits a gamma pole.
    """

    n: int
    lam: Fraction
    alpha: Fraction
    quadrature: float
    closed_form: float
    gamma_product: float
    derived: float
    rel_diff_quadrature_vs_derived: float


def default_audit_grid(n_max: int = 6) -> list[tuple[int, Fraction, Fraction]]:
    """Degrees 0..n_max for weights 1, 3 and orders 1/4, 1/2, 1."""
    return [(n, lam, alpha)
            for lam in (Fraction(1), Fraction(3))
            for alpha in (Fraction(1, 4), Fraction(1, 2), Fraction(1))
            for n in range(n_max + 1)]


def normalization_audit(
        grid: Optional[Iterable[tuple[int, RationalLike, RationalLike]]] = None,
        rel_tol: float = 1e-6) -> VerificationReport:
    """Tabulate, for each (n, weight, order): the exact diagonal, the
    closed form, the pre-simplification product form, and the
    substitution-derived classical value / order.

    Asserted: the diagonal agrees with the derived value within rel_tol.
    Recorded: rows where either formula candidate deviates from the derived
    value (or hits a pole) are flagged in the notes, never asserted.

    Each distinct (weight, order) is checked once, in the cell the inner
    product shares.  Each row checks its degree, takes the diagonal's dot
    product from the moment-weighted memo, computes its gamma values, and
    turns a DomainError at a formula's pole into NaN; a value that
    overflows a float (from degree 166) raises DomainError naming the row.
    """
    rows: list[AuditRow] = []
    flagged: list[str] = []
    worst = 0.0
    witness = None
    triples = _as_cases(default_audit_grid() if grid is None else grid, "audit grid")
    for n, lam, alpha in triples:
        cell = _cell(lam, alpha)
        _as_count(n, "degree")
        lam, alpha = cell.lam, cell.alpha
        try:
            quad = _inner_product(n, n, cell)
            derived = _classical_norm(n, cell) / cell.a
            closed = _or_nan(_closed_form, n, cell)
            product = _or_nan(_gamma_product, n, cell)
        except OverflowError:
            raise DomainError(f"n={n}, weight={lam}, order={alpha}: the normalization "
                              f"values overflow a float") from None
        rel = abs(quad - derived) / abs(derived)
        rows.append(AuditRow(n, lam, alpha, quad, closed, product, derived, rel))
        if rel > worst:
            worst = rel
            witness = f"n={n}, weight={lam}, order={alpha}: quadrature {quad!r} vs derived {derived!r}"
        for name, value in (("closed form", closed), ("product form", product)):
            if math.isnan(value) or abs(value - derived) > rel_tol * abs(derived):
                flagged.append(f"n={n}, weight={lam}, order={alpha} ({name})")
    status = "numeric-pass" if worst <= rel_tol else "fail"
    summary = (f"{len(flagged)} of {2 * len(rows)} formula comparisons flagged "
               f"(recorded, not asserted)")
    if flagged:
        summary += "; first: " + flagged[0]
        summary += ("; the product form equals sqrt(pi) * sqrt(order) * closed form, "
                    "so at order 1 only the closed form disagrees (by 1/sqrt(pi))")
    anchor = next((r for r in rows
                   if r.n == 0 and r.lam == 1 and float(r.alpha) == 1.0), None)
    if anchor is not None and (math.isnan(anchor.closed_form) or
                               abs(anchor.closed_form - anchor.derived)
                               > rel_tol * abs(anchor.derived)):
        summary += (f"; flagged at degree 0, weight 1, order 1: closed form "
                    f"{anchor.closed_form!r} vs quadrature {anchor.quadrature!r}")
    grid_text = (f"{len(rows)} diagonal entries over (degree, weight, order) triples; "
                 f"asserted tolerance {rel_tol:g} relative")
    return VerificationReport(
        "normalization-audit",
        grid_text,
        status,
        max_residual=worst,
        witness=None if status == "numeric-pass" else witness,
        notes=summary,
        table=tuple(rows),
    )


def audit_rows_to_csv(rows: Iterable[AuditRow]) -> str:
    """Deterministic CSV for the audit table (floats at full repr precision)."""
    lines = ["n,lambda,alpha,quadrature,closed_form,gamma_product,derived,"
             "rel_diff_quadrature_vs_derived"]
    for r in rows:
        lines.append(",".join([
            str(r.n), str(r.lam), str(r.alpha), repr(r.quadrature),
            repr(r.closed_form), repr(r.gamma_product), repr(r.derived),
            repr(r.rel_diff_quadrature_vs_derived)]))
    return "\n".join(lines) + "\n"
