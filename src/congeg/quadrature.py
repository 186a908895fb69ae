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
its integrand is not polynomial.  It uses composite Gauss-Legendre on panels
graded geometrically toward the integrable endpoint singularities and the
measure singularity at 0.  Convergence is judged against the L1 mass of the
integrand so that exact zeros (orthogonality) terminate.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .alphapoly import DomainError, ParameterError, _as_fraction, _as_order, pochhammer
from .gegenbauer import GegenbauerSpec, from_series
from .verify import VerificationReport

__all__ = [
    "AccuracyError",
    "AuditRow",
    "QuadratureConfig",
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
_MAX_DOUBLINGS = 8
_EDGE_DEPTH = 50    # geometric levels toward weight singularities at +-1
_ZERO_DEPTH = 120   # geometric levels toward the measure singularity at 0


@dataclass(frozen=True)
class QuadratureConfig:
    """Composite rule parameters: nodes per panel, base panel count, and the
    target relative tolerance (relative to the integrand's L1 mass)."""

    nodes: int = 16
    panels: int = 8
    rel_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not isinstance(self.nodes, int) or self.nodes < 2:
            raise ParameterError(f"node count must be an integer >= 2, got {self.nodes!r}")
        if not isinstance(self.panels, int) or self.panels < 1:
            raise ParameterError(f"panel count must be an integer >= 1, got {self.panels!r}")
        if not self.rel_tol > 0:
            raise ParameterError(f"tolerance must be positive, got {self.rel_tol!r}")


@dataclass(frozen=True)
class QuadratureResult:
    """Value, a nonnegative error estimate, and the number of evaluations."""

    value: float
    error: float
    nodes_used: int


class AccuracyError(RuntimeError):
    """The doubling budget ran out before the tolerance was met.

    Carries the best estimate so callers can still inspect it."""

    def __init__(self, message: str, best: QuadratureResult):
        super().__init__(message)
        self.best = best


DEFAULT_CONFIG = QuadratureConfig()


# ---------------------------------------------------------------------------
# composite Gauss-Legendre machinery


def _graded_edges(a: float, b: float, panels: int, depth_a: int, depth_b: int) -> np.ndarray:
    """Uniform panel edges on [a, b], refined geometrically toward each end."""
    base = np.linspace(a, b, panels + 1)
    edges = list(base)
    width = base[1] - base[0]
    edges.extend(a + width * 0.5 ** j for j in range(1, depth_a + 1))
    edges.extend(b - width * 0.5 ** j for j in range(1, depth_b + 1))
    return np.unique(np.asarray(edges, dtype=float))


def _fixed_rule(f: Callable[[np.ndarray], np.ndarray], edges: np.ndarray,
                nodes: int) -> tuple[float, float, int]:
    """One pass over all panels: returns (integral, L1 mass, evaluations)."""
    x0, w0 = np.polynomial.legendre.leggauss(nodes)
    mid = (edges[1:] + edges[:-1]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    xs = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
    ws = (half[:, None] * w0[None, :]).ravel()
    fx = f(xs)
    return float(ws @ fx), float(ws @ np.abs(fx)), xs.size


def _adaptive(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
              cfg: QuadratureConfig, depth_a: int, depth_b: int) -> QuadratureResult:
    """Panel-doubling loop; error is estimated by doubling the node count."""
    panels = cfg.panels
    used = 0
    best: Optional[QuadratureResult] = None
    for _ in range(_MAX_DOUBLINGS + 1):
        edges = _graded_edges(a, b, panels, depth_a, depth_b)
        coarse, _, n1 = _fixed_rule(f, edges, cfg.nodes)
        fine, mass, n2 = _fixed_rule(f, edges, 2 * cfg.nodes)
        used += n1 + n2
        err = abs(fine - coarse)
        best = QuadratureResult(fine, err, used)
        if err <= cfg.rel_tol * mass:
            return best
        panels *= 2
    raise AccuracyError(
        f"no convergence to rel_tol={cfg.rel_tol} within the doubling budget", best)


def _float_coeffs(n: int, lam: Fraction) -> np.ndarray:
    coeffs = from_series(GegenbauerSpec(n, lam, Fraction(1))).rational_coeffs()
    return np.array([float(c) for c in coeffs], dtype=float)


# ---------------------------------------------------------------------------
# inner products


def _over_common_denominator(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    den = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


@lru_cache(maxsize=256)
def _scaled_coeffs(n: int, lam: Fraction) -> tuple[tuple[int, ...], int]:
    """Classical (order 1) series coefficients as integers over one common
    denominator.  Cached so a sweep over pairs builds each degree once."""
    return _over_common_denominator(
        from_series(GegenbauerSpec(n, lam, Fraction(1))).rational_coeffs())


@lru_cache(maxsize=256)
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
    return _over_common_denominator(moments)


def conformable_inner_product(
        m: int, n: int, lam: Union[int, Fraction],
        alpha: Union[Fraction, float]) -> QuadratureResult:
    """<C_m, C_n> under the conformable weighted measure, through the exact
    substitution u = sign(x) |x|^a: the classical integral, an exact sum of
    coefficient products against the weight's moments, divided by a.

    The error is a bound on the rounding of the final float scaling (0.0
    when the sum is exactly zero); no evaluation nodes are used."""
    lam = _as_fraction(lam)
    if lam <= 0:
        raise ParameterError(f"weight parameter must be positive, got {lam}")
    a = float(_as_order(alpha))
    (c, c_den), (d, d_den) = _scaled_coeffs(m, lam), _scaled_coeffs(n, lam)
    moments, mu_den = _scaled_moments(lam, (len(c) + len(d)) // 2)
    # sum over i + j even of c_i d_j mu_(i+j), grouped by k = (i + j) / 2;
    # only B(1/2, base + 1/2), with base in [0, 1), is left in floats
    total = 0
    for k, moment in enumerate(moments):
        lo, hi = max(0, 2 * k - len(d) + 1), min(len(c), 2 * k + 1)
        total += moment * sum(c[i] * d[2 * k - i] for i in range(lo, hi))
    base = lam - math.floor(lam)
    if base == 0:
        beta = math.pi              # B(1/2, 1/2)
    elif base == _HALF:
        beta = 2.0                  # B(1/2, 1)
    else:
        beta = (math.sqrt(math.pi) * math.gamma(float(base + _HALF))
                / math.gamma(float(base + 1)))
    # int / int is correctly rounded, so this is the exact sum rounded once
    value = total / (mu_den * c_den * d_den) * beta / a
    # two math.gamma calls (measured within 7 units of 2^-53 on [1/2, 2])
    # plus about six correctly rounded steps stay under 32 units of 2^-53
    return QuadratureResult(value, 16 * sys.float_info.epsilon * abs(value), 0)


def conformable_inner_product_direct(
        m: int, n: int, lam: Union[int, Fraction], alpha: Union[Fraction, float],
        cfg: Optional[QuadratureConfig] = None) -> QuadratureResult:
    """The same inner product integrated directly in x (no substitution);
    independent consistency check for the substituted route."""
    cfg = cfg or DEFAULT_CONFIG
    lam = _as_fraction(lam)
    if lam <= 0:
        raise ParameterError(f"weight parameter must be positive, got {lam}")
    a = float(_as_order(alpha))
    pm = _float_coeffs(m, lam)
    pn = _float_coeffs(n, lam)
    expo = float(lam) - 0.5

    def integrand(x: np.ndarray) -> np.ndarray:
        ax = np.abs(x)
        u = np.sign(x) * ax ** a
        weight = ((1.0 - u) * (1.0 + u)) ** expo
        return weight * np.polynomial.polynomial.polyval(u, pm) \
            * np.polynomial.polynomial.polyval(u, pn) * ax ** (a - 1.0)

    value = error = 0.0
    nodes = 0
    failed = None
    for lo, hi, depth_lo, depth_hi in ((-1.0, 0.0, _EDGE_DEPTH, _ZERO_DEPTH),
                                       (0.0, 1.0, _ZERO_DEPTH, _EDGE_DEPTH)):
        try:
            r = _adaptive(integrand, lo, hi, cfg, depth_lo, depth_hi)
        except AccuracyError as exc:
            r = exc.best
            failed = exc
        value += r.value
        error += r.error
        nodes += r.nodes_used
    combined = QuadratureResult(value, error, nodes)
    if failed is not None:
        raise AccuracyError(str(failed), combined) from None
    return combined


# ---------------------------------------------------------------------------
# normalization formulas


def _checked_gamma(arg: Union[Fraction, float]) -> float:
    if isinstance(arg, Fraction):
        if arg <= 0 and arg.denominator == 1:
            raise DomainError(f"gamma pole at argument {arg}")
        return math.gamma(float(arg))
    f = float(arg)
    if f <= 0 and f.is_integer():
        raise DomainError(f"gamma pole at argument {f}")
    return math.gamma(f)


def _norm_args(n: int, lam, alpha):
    if not isinstance(n, int) or n < 0:
        raise ParameterError(f"degree must be a nonnegative integer, got {n!r}")
    lam = _as_fraction(lam)
    if lam <= 0:
        raise ParameterError(f"weight parameter must be positive, got {lam}")
    alpha = _as_order(alpha)
    inv = 1 / alpha if isinstance(alpha, Fraction) else 1.0 / alpha
    return lam, alpha, inv


def normalization_closed_form(n: int, lam, alpha) -> float:
    """Closed-form candidate for the diagonal inner product:

        2^(1-2 lam) a^(-2/a) G(n+2lam) G(lam+n) G(5/2 - a - 1/a)
        G(n+lam+3/2 - 1/a) / (n! G(lam)^2 G(lam+n+1/2) G(n+lam+2-a))

    Kept exactly as stated so the audit can compare it against the diagonal;
    known to disagree (the audit flags it) and to hit gamma poles at some
    orders, e.g. a = 1/2."""
    lam, alpha, inv = _norm_args(n, lam, alpha)
    half = Fraction(1, 2)
    top = (_checked_gamma(n + 2 * lam) * _checked_gamma(lam + n)
           * _checked_gamma(5 * half - alpha - inv)
           * _checked_gamma(n + lam + 3 * half - inv))
    bottom = (math.factorial(n) * _checked_gamma(lam) ** 2
              * _checked_gamma(lam + n + half) * _checked_gamma(n + lam + 2 - alpha))
    return 2.0 ** float(1 - 2 * lam) * float(alpha) ** (-2.0 / float(alpha)) * top / bottom


def normalization_gamma_product(n: int, lam, alpha) -> float:
    """Pre-simplification product form of the same diagonal value:

        a^(1/2 - 2/a) G(lam+1/2) G(n+2lam) G(lam+n) G(5/2 - a - 1/a)
        G(n+lam+3/2 - 1/a) / (n! G(2lam) G(lam+n+1/2) G(lam) G(n+lam+2-a))

    Differs from the closed form by sqrt(pi) * a^(1/2) (a duplication-step
    slip in the closed form); at order 1 it reduces to the classical value."""
    lam, alpha, inv = _norm_args(n, lam, alpha)
    half = Fraction(1, 2)
    top = (_checked_gamma(lam + half) * _checked_gamma(n + 2 * lam)
           * _checked_gamma(lam + n) * _checked_gamma(5 * half - alpha - inv)
           * _checked_gamma(n + lam + 3 * half - inv))
    bottom = (math.factorial(n) * _checked_gamma(2 * lam)
              * _checked_gamma(lam + n + half) * _checked_gamma(lam)
              * _checked_gamma(n + lam + 2 - alpha))
    return float(alpha) ** (0.5 - 2.0 / float(alpha)) * top / bottom


def classical_norm(n: int, lam) -> float:
    """Classical Gegenbauer diagonal value
    pi 2^(1-2lam) G(n+2lam) / (n! (n+lam) G(lam)^2); the substitution
    predicts the conformable diagonal as this divided by the order."""
    lam = _as_fraction(lam)
    if lam <= 0:
        raise ParameterError(f"weight parameter must be positive, got {lam}")
    return (math.pi * 2.0 ** float(1 - 2 * lam) * math.gamma(float(2 * lam) + n)
            / (math.factorial(n) * float(n + lam) * math.gamma(float(lam)) ** 2))


# ---------------------------------------------------------------------------
# sweeps


def orthogonality_check(
        n_max: int = 8,
        lambdas: Sequence[Union[int, Fraction]] = (Fraction(1), Fraction(3)),
        alphas: Sequence[Union[Fraction, float]] = (Fraction(1, 2), Fraction(1)),
        tol: float = 1e-8) -> VerificationReport:
    """Off-diagonal inner products vanish relative to the diagonal scale:
    |<C_m, C_n>| <= tol * sqrt(<C_m,C_m> <C_n,C_n>) for all m != n."""
    grid = (f"m != n <= {n_max}, weight in {{{', '.join(str(v) for v in lambdas)}}}, "
            f"order in {{{', '.join(str(a) for a in alphas)}}}")
    worst = 0.0
    witness = None
    for lam in lambdas:
        for alpha in alphas:
            diag = [conformable_inner_product(k, k, lam, alpha).value
                    for k in range(n_max + 1)]
            for m_deg in range(n_max + 1):
                for n_deg in range(m_deg + 1, n_max + 1):
                    cross = conformable_inner_product(m_deg, n_deg, lam, alpha).value
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
    alpha: Union[Fraction, float]
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
        grid: Optional[Iterable[tuple[int, Union[int, Fraction], Union[Fraction, float]]]] = None,
        rel_tol: float = 1e-6) -> VerificationReport:
    """Tabulate, for each (n, weight, order): the exact diagonal, the
    closed form, the pre-simplification product form, and the
    substitution-derived classical value / order.

    Asserted: the diagonal agrees with the derived value within rel_tol.
    Recorded: rows where either formula candidate deviates from the derived
    value (or hits a pole) are flagged in the notes, never asserted.
    """
    rows: list[AuditRow] = []
    flagged: list[str] = []
    worst = 0.0
    witness = None
    triples = list(grid) if grid is not None else default_audit_grid()
    for n, lam, alpha in triples:
        lam = _as_fraction(lam)
        quad = conformable_inner_product(n, n, lam, alpha).value
        derived = classical_norm(n, lam) / float(alpha)
        try:
            closed = normalization_closed_form(n, lam, alpha)
        except DomainError:
            closed = math.nan
        try:
            product = normalization_gamma_product(n, lam, alpha)
        except DomainError:
            product = math.nan
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
