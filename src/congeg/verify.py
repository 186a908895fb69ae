"""Machine verification of identities for the conformable Gegenbauer family.

Asserted checks (exact unless stated): construction-route agreement,
differential-equation annihilation, generating-function coefficients, the
derivative ladder, recurrences, endpoint values, the classical special
cases (numeric at order 1), and, from `quadrature`, orthogonality and the
normalization of the exact diagonal against the derived value (numeric).
`SUITES` is the one table of them.

Recorded audits evaluate variant operator and normalization forms and write
their measured residuals or constant factors into the report.  The
shifted-weight Rodrigues audit proves in integers that the route's
Rodrigues member equals the series at every degree, and compares only its
degree-0 constant in floats.  They are findings, not gates: callers must
never let them fail a run.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import gegenbauer
from .alphapoly import (AlphaPoly, ParameterError, RationalLike, _as_cases, _as_count,
                        _as_order, _sample_grid, gamma_quotient)
from .gegenbauer import (
    _MEMO_SIZE,
    GegenbauerSpec,
    UltrasphericalSpec,
    _check_weight,
    _oracle_coeffs,
    chebyshev_t,
    chebyshev_t_rodrigues,
    from_rodrigues,
    from_series,
    legendre,
    ultraspherical,
    ultraspherical_rodrigues,
)
from .quadrature import _gegenbauer_values, normalization_audit, orthogonality_check
from .report import SUITE_NAMES, VerificationReport

__all__ = [
    "ParamGrid",
    "STANDARD_GRID",
    "SUITES",
    "audit_chebyshev_limit",
    "audit_ultraspherical",
    "check_constructor_agreement",
    "check_endpoint_values",
    "check_generating_function",
    "check_derivative_ladder",
    "check_ode_annihilation",
    "check_recurrences",
    "check_special_cases",
    "generating_function_coeffs",
    "ode_residual",
    "run_asserted_checks",
    "run_recorded_audits",
    "ultraspherical_ode_residual",
]

_HALF = Fraction(1, 2)
# The factor (1 - x^(2a)) of the ODE's second-derivative term.
_ODE_WEIGHT = AlphaPoly((1, 0, -1))
# Entries per memo of a whole sweep's oracle, keyed by a weight and the
# sweep's bounds: a suite asks for one per weight (three in `SUITES`).
_SWEEP_MEMO_SIZE = 32


# ---------------------------------------------------------------------------
# parameter grids


@dataclass(frozen=True)
class ParamGrid:
    """Sweep over degree and weight; it has no order, since an exact identity
    holds at every order at once.  The weights must be nonempty, are checked
    like a spec's and are stored as a tuple of Fractions; n_max must be an
    int, and a negative one gives an empty grid, which the exact sweeps and
    `run_asserted_checks` refuse.  The grid is checked once, here: a sweep
    then builds each case from the integers of `cases`, with no spec."""

    n_max: int = 12
    lambdas: tuple[Fraction, ...] = (_HALF, Fraction(1), Fraction(5, 2), Fraction(3))

    def __post_init__(self) -> None:
        if not isinstance(self.n_max, int) or isinstance(self.n_max, bool):
            raise ParameterError(f"n_max must be an integer, got {self.n_max!r}")
        lambdas = _as_cases(self.lambdas, "weights")
        object.__setattr__(self, "lambdas", tuple(_check_weight(v) for v in lambdas))

    def cases(self, n_max: Optional[int] = None) -> Iterator[tuple[int, int, int]]:
        """(n, p, q) per weight lam = p/q and degree n, weight by weight,
        degrees up to n_max capped at the grid's own: a case carries no
        order, so an exact check that holds for it holds at every order."""
        top = self.n_max if n_max is None else min(n_max, self.n_max)
        for lam in self.lambdas:
            p, q = lam.as_integer_ratio()
            for n in range(top + 1):
                yield n, p, q

    def describe(self, n_max: Optional[int] = None, bounds: str = "") -> str:
        """The grid's text for a report of an exact sweep; `bounds` follows
        the degree bound."""
        top = self.n_max if n_max is None else min(n_max, self.n_max)
        lams = ", ".join(str(v) for v in self.lambdas)
        return f"n <= {top}{bounds}, weight in {{{lams}}}; exact, order-free"


STANDARD_GRID = ParamGrid()


def _residual_size(poly: AlphaPoly, alpha: RationalLike) -> float:
    """Largest coefficient magnitude once the order alpha is substituted."""
    scale = float(alpha) ** poly.grade
    return max((abs(float(c) * scale) for c in poly.coeffs), default=0.0)


def _exact_report(identity: str, grid: str, cases: Iterable[tuple], *,
                  notes: str | Callable[[int], str] = "",
                  asserted: bool = True) -> VerificationReport:
    """Report an exact identity over cases (label, (name, lhs), (name, rhs)).
    The first case whose sides differ fails it with the witness
    `label: name = lhs; name = rhs`, formatted only then; a label (n, p, q)
    prints as the spec GegenbauerSpec(n, p/q), built only then.  Polynomial
    sides add the residual's size at order 1, since exact values carry no order.
    A pass has `notes`, or `notes(count)` of the cases compared; no case at
    all proves nothing and is refused."""
    count = 0
    for label, (lhs_name, lhs), (rhs_name, rhs) in cases:
        if lhs != rhs:
            poly = isinstance(lhs, AlphaPoly)
            if type(label) is tuple:
                label = GegenbauerSpec(label[0], Fraction(label[1], label[2]))
            return VerificationReport(
                identity, grid, "fail", asserted=asserted,
                max_residual=_residual_size(lhs - rhs, 1) if poly else None,
                witness=f"{label}: {lhs_name} = {lhs}; {rhs_name} = {rhs}",
                notes="max_residual taken at order 1: exact values carry no order"
                      if poly else "")
        count += 1
    if not count:
        raise ParameterError(f"{identity} has no case to check over {grid}")
    return VerificationReport(identity, grid, "exact-pass", asserted=asserted,
                              notes=notes if isinstance(notes, str) else notes(count))


# ---------------------------------------------------------------------------
# single-identity operations


def ode_residual(p: AlphaPoly, spec: GegenbauerSpec) -> AlphaPoly:
    """Apply the weighted conformable operator

        (1 - x^(2a)) DD - a (2 lam + 1) x^a D + a^2 n (n + 2 lam)

    to p; the family member of the spec is annihilated exactly."""
    if not isinstance(p, AlphaPoly):
        raise ParameterError("expected an AlphaPoly")
    return _ode_residual(p, spec.n, *spec.lam.as_integer_ratio())


def _ode_residual(poly: AlphaPoly, n: int, p: int, q: int) -> AlphaPoly:
    """`ode_residual` at lam = p/q, scaled by integers:
    2 lam + 1 = (2p + q)/q and n (n + 2 lam) = n (qn + 2p)/q."""
    d1 = poly.d_alpha()
    return (_ODE_WEIGHT * d1.d_alpha() - d1.shift(1)._times(2 * p + q, q, 1)
            + poly._times(n * (q * n + 2 * p), q, 2))


def ultraspherical_ode_residual(p: AlphaPoly, spec: UltrasphericalSpec) -> AlphaPoly:
    """Variant operator for the shifted-weight family, the form under audit:
    `ode_residual` at lam = beta + 1/2 with no (1 - x^(2a)) factor on the
    second-derivative term, which adds x^(2a) DD to the residual.  It
    annihilates only n <= 1."""
    residual = ode_residual(p, GegenbauerSpec(spec.n, spec.lam))
    return residual + p.d_alpha().d_alpha().shift(2)


def generating_function_coeffs(lam: Fraction, max_n: int) -> list[list[Fraction]]:
    """Coefficient rows of s^0 .. s^max_n in (1 - 2 u s + s^2)^(-lam),
    each row ascending in u.  Independent expansion through the generalized
    binomial series in w = 2 u s - s^2; row n reproduces the degree-n family
    member's coefficients.  Memoized by (p, q, max_n) for lam = p/q; each
    call returns new lists."""
    p, q = _check_weight(lam).as_integer_ratio()
    return [list(row) for row in _generating_rows(p, q, _as_count(max_n, "series order"))]


@functools.lru_cache(maxsize=_SWEEP_MEMO_SIZE)
def _generating_rows(p: int, q: int, max_n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Body of `generating_function_coeffs`.  Term i of w^j carries
    s^(j+i) u^(j-i) with the factor (lam)_j / j! * C(j, i) 2^(j-i) (-1)^i,
    so each (s, u) power pair gets exactly one term.  With lam = p/q,
    (lam)_j / j! is prod(p + q k) / (q^j j!) over k < j, carried as two
    running integers; each coefficient is one Fraction of integers."""
    rows = [[Fraction(0)] * (n + 1) for n in range(max_n + 1)]
    num, den = 1, 1
    for j in range(max_n + 1):
        for i in range(min(j, max_n - j) + 1):
            term = math.comb(j, i) * num << (j - i)
            rows[j + i][j - i] = Fraction(-term if i % 2 else term, den)
        num *= p + q * j
        den *= q * (j + 1)
    return tuple(map(tuple, rows))


def _ladder_cases(n: int, p: int, q: int, m_top: int) -> Iterator[tuple]:
    """d_alpha^m C_n^(lam) = 2^m a^m (lam)_m C_(n-m)^(lam+m), for 1 <= m <= m_top <= n,
    with 2^m (lam)_m = 2^m prod(p + qi) / q^m over i < m and lam + m = (p + mq)/q,
    in lowest terms as the kernel's memo keys must be."""
    series = gegenbauer._series_coeffs
    lhs = series(n, p, q)
    factor = 1
    for m in range(1, m_top + 1):
        lhs = lhs.d_alpha()
        factor *= 2 * (p + q * (m - 1))
        rhs = series(n - m, p + m * q, q)._times(factor, q ** m, m)
        yield (n, p, q), (f"d_alpha^{m} C_n", lhs), ("2^m a^m (lam)_m C_(n-m)^(lam+m)", rhs)


def _recurrence_cases(n: int, p: int, q: int) -> Iterator[tuple]:
    """The three-term and weight-raising recurrences at pivot n:

        (n+1) C_(n+1)^(lam) = 2 (n+lam) x^a C_n^(lam)   - (n+2lam-1) C_(n-1)^(lam)
        (n+1) C_(n+1)^(lam) = 2 lam x^a C_n^(lam+1)     - 2 lam C_(n-1)^(lam+1)

    with the convention that the degree -1 member is the zero polynomial;
    2 (n+lam) = 2 (qn+p)/q and n+2lam-1 = (qn+2p-q)/q."""
    series = gegenbauer._series_coeffs
    c_next = ("(n+1) C_(n+1)", series(n + 1, p, q)._times(n + 1))
    c_prev = series(n - 1, p, q) if n else AlphaPoly.zero()
    three_term = (series(n, p, q).shift(1)._times(2 * (q * n + p), q)
                  - c_prev._times(q * n + 2 * p - q, q))
    yield (n, p, q), c_next, ("three-term", three_term)
    up_prev = series(n - 1, p + q, q) if n else AlphaPoly.zero()
    raised = (series(n, p + q, q).shift(1) - up_prev)._times(2 * p, q)
    yield (n, p, q), c_next, ("weight-raising", raised)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _endpoint_value(n: int, p: int, q: int) -> Fraction:
    """The closed form G(2 lam + n) / (G(2 lam) n!), per (n, p, q) for lam = p/q."""
    lam = Fraction(p, q)
    return gamma_quotient(2 * lam + n, 2 * lam) / math.factorial(n)


# ---------------------------------------------------------------------------
# asserted sweeps: each builds its cases from (n, p, q) alone, with members
# from the route kernels looked up in `gegenbauer` when it runs, so a kernel
# rebound there is the one that runs


def check_constructor_agreement(grid: ParamGrid = STANDARD_GRID) -> VerificationReport:
    """All three construction routes emit identical exact coefficients.  The
    coefficients are order-free by construction, since each route keys its
    polynomial by (n, weight) and an `AlphaPoly` carries no order."""
    def cases() -> Iterator[tuple]:
        series, recurrence = gegenbauer._series_coeffs, gegenbauer._recurrence_coeffs
        rodrigues = gegenbauer._rodrigues_coeffs
        for case in grid.cases():
            member = ("series", series(*case))
            yield case, member, ("recurrence", recurrence(*case))
            yield case, member, ("rodrigues", rodrigues(*case))

    return _exact_report(
        "constructor-agreement", grid.describe(), cases(),
        notes=lambda count: f"{count // 2} (degree, weight) pairs, 3 routes each; coefficients "
                            "order-free by construction (keyed by degree and weight)")


def check_ode_annihilation(grid: ParamGrid = STANDARD_GRID) -> VerificationReport:
    """The weighted operator annihilates every family member, symbolically."""
    series, zero = gegenbauer._series_coeffs, ("zero", AlphaPoly.zero())
    cases = (((n, p, q), ("residual", _ode_residual(series(n, p, q), n, p, q)), zero)
             for n, p, q in grid.cases())
    return _exact_report(
        "ode-annihilation", grid.describe(), cases,
        notes=lambda count: f"{count} (degree, weight) pairs, residual exactly zero")


def check_generating_function(
        lambdas: Sequence[Fraction] = (_HALF, Fraction(1), Fraction(3)),
        n_max: int = 10) -> VerificationReport:
    """Series rows of the generating function match from_series exactly.
    Every weight is checked first, and the grid prints the checked values."""
    lambdas = tuple(map(_check_weight, _as_cases(lambdas, "weights")))

    def cases() -> Iterator[tuple]:
        series = gegenbauer._series_coeffs
        for lam in lambdas:
            p, q = lam.as_integer_ratio()
            for n, row in enumerate(generating_function_coeffs(lam, n_max)):
                yield ((n, p, q), ("generating function", row),
                       ("series", list(series(n, p, q).rational_coeffs())))

    grid = f"n <= {n_max}, weight in {{{', '.join(str(v) for v in lambdas)}}}"
    return _exact_report("generating-function", grid, cases())


def check_derivative_ladder(
        grid: ParamGrid = STANDARD_GRID, n_max: int = 8, m_max: int = 3) -> VerificationReport:
    """Derivative ladder over the grid, ladder length m <= min(m_max, n)."""
    _as_count(n_max, "n_max")
    _as_count(m_max, "m_max")
    cases = (case for n, p, q in grid.cases(n_max)
             for case in _ladder_cases(n, p, q, min(m_max, n)))
    return _exact_report("derivative-ladder", grid.describe(n_max, f", m <= {m_max}"), cases)


def check_recurrences(grid: ParamGrid = STANDARD_GRID, n_max: int = 11) -> VerificationReport:
    """Both recurrences at every pivot reachable inside the grid."""
    _as_count(n_max, "n_max")
    top = min(n_max, grid.n_max - 1)
    cases = (case for n, p, q in grid.cases(top) for case in _recurrence_cases(n, p, q))
    return _exact_report("recurrences", grid.describe(top, " (pivots)"), cases)


def check_endpoint_values(grid: ParamGrid = STANDARD_GRID) -> VerificationReport:
    """Exact endpoint values over the whole grid."""
    series = gegenbauer._series_coeffs
    cases = (((n, p, q), ("coefficient sum", series(n, p, q).coefficient_sum()),
              ("G(2 lam + n) / (G(2 lam) n!)", _endpoint_value(n, p, q)))
             for n, p, q in grid.cases())
    return _exact_report("endpoint-value", grid.describe(), cases)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _chebyshev_t_closed(n: int) -> tuple[Fraction, ...]:
    """Closed-form first-kind coefficients (independent of the recurrence):
    T_n = (n/2) sum_k (-1)^k (n-k-1)! / (k! (n-2k)!) (2u)^(n-2k) for n >= 1."""
    if n == 0:
        return (Fraction(1),)
    out = [Fraction(0)] * (n + 1)
    for k in range(n // 2 + 1):
        out[n - 2 * k] = (
            Fraction(n, 2) * Fraction(-1) ** k * math.factorial(n - k - 1)
            * Fraction(2) ** (n - 2 * k) / (math.factorial(k) * math.factorial(n - 2 * k)))
    return tuple(out)


@functools.lru_cache(maxsize=_SWEEP_MEMO_SIZE)
def _special_reference(p: int, q: int, n_max: int, samples: int) -> tuple:
    """The order-1 oracle of `check_special_cases` at the weight lam = p/q:
    the sample points, then per degree n <= n_max the column of C_n at those
    points by the float three-term recurrence the direct route uses (one
    recurrence per point), and the scale max(1, L1 norm of the classical
    coefficients)."""
    xs = tuple(_sample_grid(-1.0, samples))
    columns = tuple(zip(*(_gegenbauer_values(n_max, p / q, x) for x in xs)))
    scales = tuple(max(1.0, sum(abs(float(c)) for c in _oracle_coeffs(n, p, q)))
                   for n in range(n_max + 1))
    return xs, columns, scales


def check_special_cases(
        n_max: int = 10, samples: int = 200, rel_tol: float = 1e-12) -> VerificationReport:
    """Weight 1/2 matches Legendre, weight 1 matches second-kind Chebyshev,
    the first-kind coefficients match their closed form (all exact, checked
    once per degree, since exact values carry no order), and at order 1
    `values` (Horner on the coefficients, or their Chebyshev sum past
    Horner's bound) matches the float three-term recurrence the direct
    route uses, an independent evaluation.

    The numeric comparison is measured relative to the coefficient L1 norm
    (the natural evaluation scale; pointwise relative error is ill-defined
    at interior roots).

    The oracles are kept per process: the classical and closed-form
    coefficients per degree (and weight), and the recurrence's columns
    with their scales per (weight, n_max, samples).  The members, their
    `values` at the sample points and every comparison run on each call,
    so a defect in a constructor or an evaluator fails a warm process
    too."""
    _as_count(n_max, "n_max")
    grid = f"n <= {n_max}, order 1"
    series = gegenbauer._series_coeffs

    def reductions() -> Iterator[tuple]:
        for n in range(n_max + 1):
            for name, poly, expected in (
                    ("legendre", legendre(n), _oracle_coeffs(n, 1, 2)),
                    ("second-kind", series(n, 1, 1), _oracle_coeffs(n, 1, 1)),
                    ("first-kind", chebyshev_t(n), _chebyshev_t_closed(n))):
                yield (f"n={n}", (name, list(poly.rational_coeffs())),
                       ("expected", list(expected)))

    if not (exact := _exact_report("special-cases", grid, reductions())).passed:
        return exact
    worst = 0.0
    for p, q in ((1, 2), (1, 1), (3, 1)):
        xs, columns, scales = _special_reference(p, q, n_max, samples)
        for n, (column, scale) in enumerate(zip(columns, scales)):
            error = max(map(abs, map(operator.sub, series(n, p, q).values(xs, 1.0), column)))
            worst = max(worst, error / scale)
            if worst > rel_tol:
                return VerificationReport(
                    "special-cases", grid, "fail", max_residual=worst,
                    witness=f"order-1 evaluation n={n}, weight={Fraction(p, q)}")
    return VerificationReport(
        "special-cases", grid, "numeric-pass", max_residual=worst,
        notes=f"reductions exact and order-free; order-1 evaluation residual "
              f"relative to coefficient L1 norm, {samples} points")


# ---------------------------------------------------------------------------
# recorded audits (never gate a run)


def audit_ultraspherical(
        betas: Sequence[Fraction] = (Fraction(0), _HALF, Fraction(3, 2)),
        alphas: Sequence[RationalLike] = (_HALF, Fraction(1)),
        n_max: int = 6) -> list[VerificationReport]:
    """Recorded findings for the shifted-weight family: the variant operator,
    the series-form consistency against the generating function's binomial
    rows, and the alternate Rodrigues normalization.  Each exact object is
    built once per (shifted weight, degree), since it carries no order; only
    the variant's residual size is taken at an order, the largest listed,
    where it peaks.  The shifted weights, checked as a spec's, and the
    orders must be nonempty; the grid prints the checked values."""
    _as_count(n_max, "n_max")
    specs = [[UltrasphericalSpec(n, beta) for n in range(n_max + 1)]
             for beta in _as_cases(betas, "shifted weights")]
    betas = [row[0].beta for row in specs]
    alphas = tuple(_as_order(a) for a in _as_cases(alphas, "orders"))
    grid = (f"n <= {n_max}, shifted weight in {{{', '.join(str(b) for b in betas)}}}, "
            f"order in {{{', '.join(str(a) for a in alphas)}}}")
    reports = []

    # Variant operator: second-derivative term missing (1 - x^(2a)).  The
    # weighted operator annihilates every true member, so the first member
    # it does not is faulty, and fails the report in place of the variant.
    # The variant residual has grade 2, so its size grows with the order.
    top = max(alphas)
    worst = 0.0
    witness = None
    fault = None
    annihilated_upper = 1
    for row in specs:
        for spec in row:
            p = ultraspherical(spec)
            full = ode_residual(p, GegenbauerSpec(spec.n, spec.lam))
            if not full.is_zero and fault is None:
                fault = VerificationReport(
                    "ultraspherical-ode-variant-operator", grid, "fail",
                    max_residual=_residual_size(full, alphas[0]),
                    witness=f"beta={spec.beta}, n={spec.n}: weighted residual = {full}",
                    asserted=False,
                    notes="the weighted operator, which annihilates every true member, "
                          "leaves this residual, so the member itself is faulty; it is "
                          "not the variant's expected residual. max_residual taken at "
                          f"order {alphas[0]}.")
            variant = ultraspherical_ode_residual(p, spec)
            if not variant.is_zero and spec.n <= 1:
                annihilated_upper = 0
            size = _residual_size(variant, top)
            if size > worst:
                worst = size
                witness = f"beta={spec.beta}, n={spec.n}, order={top}: residual = {variant}"
    reports.append(fault or VerificationReport(
        "ultraspherical-ode-variant-operator", grid,
        "fail" if witness else "exact-pass",
        max_residual=worst or None, witness=witness, asserted=False,
        notes="variant lacks the (1 - x^(2a)) factor on the second-derivative "
              f"term; it annihilates only n <= {annihilated_upper}. The weighted "
              "operator annihilates every case exactly."))

    # Series-form consistency at lam = beta + 1/2, against the independent
    # binomial expansion of the generating function.
    def series_cases() -> Iterator[tuple]:
        for row in specs:
            for spec, coeffs in zip(row, generating_function_coeffs(row[0].lam, n_max)):
                yield (spec, ("series", list(ultraspherical(spec).rational_coeffs())),
                       ("generating function", coeffs))

    reports.append(_exact_report(
        "ultraspherical-series-form", grid, series_cases(), asserted=False,
        notes="series exponent and factorial read as (n - 2s); the transposed "
              "variant (s - 2n)! is undefined for s < 2n and is not implemented"))

    # Alternate Rodrigues route: the constant times the Rodrigues member at
    # lam = beta + 1/2.  That member equals the series exactly; only the
    # constant, the route's degree-0 value, is left to floats.
    def rodrigues_cases() -> Iterator[tuple]:
        for row in specs:
            for spec in row:
                member = from_rodrigues(GegenbauerSpec(spec.n, spec.lam))
                yield spec, ("rodrigues", member), ("series", ultraspherical(spec))

    closed = [2.0 ** float(b) * math.gamma(float(b) + 0.5) / math.sqrt(math.pi)
              for b in betas]
    constant_error = max(abs(ultraspherical_rodrigues(row[0])[0] - c) / c
                         for row, c in zip(specs, closed))
    constants = ", ".join(f"{b}: {c:.12g}" for b, c in zip(betas, closed))
    exact = _exact_report(
        "ultraspherical-rodrigues-normalization", grid, rodrigues_cases(), asserted=False,
        notes=lambda count: (
            "route = G(2b+1) / (2^b G(b+1)) times the Rodrigues member at weight b+1/2, "
            f"which equals the series exactly in all {count} (degree, shifted weight) "
            "cases; the constant is the route's degree-0 value, compared in floats "
            f"with 2^b G(b+1/2)/sqrt(pi) (Legendre duplication): {constants}. "
            "Recorded, not rescaled."))
    reports.append(exact if not exact.passed else replace(
        exact, status="numeric-pass" if constant_error < 1e-9 else "fail",
        max_residual=constant_error))
    return reports


def audit_chebyshev_limit(n_max: int = 8, m_max: int = 3) -> list[VerificationReport]:
    """Recorded findings at the first-kind (weight -> 0) boundary.  Both are
    exact and order-free; the ladder needs n_max, m_max >= 1."""
    if min(_as_count(n_max, "n_max"), _as_count(m_max, "m_max")) < 1:
        raise ParameterError(f"n_max and m_max must be >= 1, got {n_max} and {m_max}")
    grid = f"n <= {n_max}"
    reports = []

    cases = ((f"n={n}", ("first-kind", chebyshev_t(n)),
              ("rodrigues", chebyshev_t_rodrigues(n))) for n in range(n_max + 1))
    reports.append(_exact_report(
        "chebyshev-rodrigues-limit", grid, cases, asserted=False,
        notes="boundary Rodrigues route (exponent n - 1/2) equals the classical "
              "first-kind coefficients exactly; no limit rescaling required"))

    # Ladder out of the first kind: the variant constant 2^m a^m (m-1)! is
    # short by n/2; measure the exact ratio.
    mismatch = None
    exact_ratio = True
    for n in range(1, n_max + 1):
        lhs = chebyshev_t(n)
        for m in range(1, min(m_max, n) + 1):
            lhs = lhs.d_alpha()
            target = from_series(GegenbauerSpec(n - m, m))
            variant = target.scale(Fraction(2) ** m * math.factorial(m - 1), power=m)
            if lhs != variant.scale(Fraction(n, 2)):
                exact_ratio = False
            if lhs != variant and mismatch is None:
                mismatch = f"n={n}, m={m}"
    reports.append(VerificationReport(
        "chebyshev-derivative-ladder", grid + f", m <= {m_max}",
        "fail" if mismatch else "exact-pass",
        witness=mismatch, asserted=False,
        notes="measured ratio lhs/variant is exactly n/2 for every case"
              if exact_ratio else
              "measured ratio lhs/variant is NOT the uniform n/2",))
    return reports


# ---------------------------------------------------------------------------
# drivers


# Every asserted suite by its name in `report.SUITE_NAMES`, in that order.
# Each builder takes the grid and looks its check up by name at call time, so
# a check rebound in this module (as the perfbench tracer does, or a test that
# patches one) is the one that runs.
SUITES: dict[str, Callable[[ParamGrid], VerificationReport]] = dict(zip(SUITE_NAMES, (
    lambda grid: check_constructor_agreement(grid),
    lambda grid: check_ode_annihilation(grid),
    lambda grid: check_generating_function(),
    lambda grid: check_derivative_ladder(grid),
    lambda grid: check_recurrences(grid),
    lambda grid: check_endpoint_values(grid),
    lambda grid: check_special_cases(),
    lambda grid: orthogonality_check(n_max=grid.n_max),
    lambda grid: normalization_audit(),
), strict=True))


def run_asserted_checks(
        grid: ParamGrid = STANDARD_GRID, *, suite: str = "all") -> list[VerificationReport]:
    """The asserted suites of `SUITES` in report order: every one, or only
    the one named by `suite`.  The sweeps need a grid reaching degree 3."""
    if suite != "all" and suite not in SUITES:
        raise ParameterError(
            f"unknown suite {suite!r}; choose from {', '.join(('all', *SUITES))}")
    if grid.n_max < 3:
        raise ParameterError(f"--n-max must be >= 3 for the sweeps, got {grid.n_max}")
    return [build(grid) for name, build in SUITES.items() if suite in ("all", name)]


@functools.cache
def _recorded_audits() -> tuple[VerificationReport, ...]:
    return tuple(audit_ultraspherical() + audit_chebyshev_limit())


def run_recorded_audits() -> list[VerificationReport]:
    """All recorded audits owned by this module.

    They take no input, so they are computed once per process; each call
    returns a new list of the same frozen reports."""
    return list(_recorded_audits())
