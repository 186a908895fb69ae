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
from fractions import Fraction
from itertools import zip_longest
from typing import Callable, Iterable, Iterator

from . import gegenbauer
from .alphapoly import (AlphaPoly, ParameterError, RationalLike, _as_count, _as_int, _rising,
                        _sample_grid)
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
# Entries per memo of a whole sweep's oracle, keyed by a weight (the generating
# rows also by degree): a suite asks for one per weight (three in `SUITES`).
_SWEEP_MEMO_SIZE = 32


# ---------------------------------------------------------------------------
# the exact sweeps' cases


# The weights lam = p/q of the exact sweeps.  A case carries no order, so an
# exact check that holds for it holds at every order.
_SWEEP_WEIGHTS = ((1, 2), (1, 1), (5, 2), (3, 1))
_SWEEP_WEIGHT_TEXT = ", ".join(str(Fraction(p, q)) for p, q in _SWEEP_WEIGHTS)


def _sweep_cases(top: int) -> Iterator[tuple[int, int, int]]:
    """(n, p, q) per sweep weight lam = p/q and degree n <= top, weight by weight."""
    return ((n, p, q) for p, q in _SWEEP_WEIGHTS for n in range(top + 1))


def _sweep_grid(top: int, bounds: str = "") -> str:
    """The grid text of an exact sweep to degree top; `bounds` follows the degree bound."""
    return f"n <= {top}{bounds}, weight in {{{_SWEEP_WEIGHT_TEXT}}}; exact, order-free"


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
    sides add the residual's size at order 1, since exact values carry no order,
    or a note where that size lies past the float range.
    A pass has `notes`, or `notes(count)` of the cases compared; no case at
    all proves nothing and is refused."""
    count = 0
    for label, (lhs_name, lhs), (rhs_name, rhs) in cases:
        if lhs != rhs:
            size, note = None, ""
            if isinstance(lhs, AlphaPoly):
                try:
                    size = _residual_size(lhs - rhs, 1)
                    note = "max_residual taken at order 1: exact values carry no order"
                except OverflowError:
                    note = "no max_residual: the residual lies past the float range"
            if type(label) is tuple:
                label = GegenbauerSpec(label[0], Fraction(label[1], label[2]))
            return VerificationReport(
                identity, grid, "fail", asserted=asserted, max_residual=size,
                witness=f"{label}: {lhs_name} = {lhs}; {rhs_name} = {rhs}", notes=note)
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
    """`ode_residual` at lam = p/q, in one pass over the numerators c_k of
    poly.  The coefficient of x^(ka) in the residual is a^2 times

        (k+2)(k+1) c_(k+2) + (n-k)(n+k+2 lam) c_k:

    (1 - x^(2a)) DD gives (k+2)(k+1) c_(k+2) - k(k-1) c_k, -a (2 lam + 1) x^a D
    gives -(2 lam + 1) k c_k and a^2 n (n + 2 lam) gives n (n + 2 lam) c_k, and
    n (n + 2 lam) - k(k-1) - (2 lam + 1) k = (n-k)(n+k+2 lam).  This is the
    ODE's power-series recurrence (DLMF 18.8).  Scaled by q, each numerator
    is q (k+2)(k+1) c_(k+2) + (n-k)(q (n+k) + 2p) c_k over q times poly's
    denominator, at two grades above poly's."""
    c = poly.nums + (0, 0)
    return AlphaPoly._of(
        [q * (k + 2) * (k + 1) * c[k + 2] + (n - k) * (q * (n + k) + 2 * p) * c[k]
         for k in range(len(poly.nums))],
        poly.den * q, poly.grade + 2)


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
    (lam)_j / j! is prod(p + q k) / (q^j j!) over k < j, so each
    coefficient is one Fraction of integers."""
    rows = [[Fraction(0)] * (n + 1) for n in range(max_n + 1)]
    for j in range(max_n + 1):
        num, den = _rising(p, q, j), q ** j * math.factorial(j)
        for i in range(min(j, max_n - j) + 1):
            term = math.comb(j, i) * num << (j - i)
            rows[j + i][j - i] = Fraction(-term if i % 2 else term, den)
    return tuple(map(tuple, rows))


def _ladder_cases(n: int, p: int, q: int, m_top: int) -> Iterator[tuple]:
    """d_alpha^m C_n^(lam) = 2^m a^m (lam)_m C_(n-m)^(lam+m), for 1 <= m <= m_top <= n,
    with 2^m (lam)_m = 2^m prod(p + qi) / q^m over i < m and lam + m = (p + mq)/q,
    in lowest terms as the kernel's memo keys must be."""
    series = gegenbauer._series_coeffs
    lhs = series(n, p, q)
    for m in range(1, m_top + 1):
        lhs = lhs.d_alpha()
        rhs = series(n - m, p + m * q, q)._times(_rising(2 * p, 2 * q, m), q ** m, m)
        yield (n, p, q), (f"d_alpha^{m} C_n", lhs), ("2^m a^m (lam)_m C_(n-m)^(lam+m)", rhs)


def _recurrence_cases(n: int, p: int, q: int) -> Iterator[tuple]:
    """The three-term and weight-raising recurrences at pivot n:

        (n+1) C_(n+1)^(lam) = 2 (n+lam) x^a C_n^(lam)   - (n+2lam-1) C_(n-1)^(lam)
        (n+1) C_(n+1)^(lam) = 2 lam x^a C_n^(lam+1)     - 2 lam C_(n-1)^(lam+1)

    with the convention that the degree -1 member is the zero polynomial;
    2 (n+lam) = 2 (qn+p)/q and n+2lam-1 = (qn+2p-q)/q.  Each right-hand side
    is built in one pass by `_two_term`."""
    series = gegenbauer._series_coeffs
    c_next = ("(n+1) C_(n+1)", series(n + 1, p, q)._times(n + 1))
    for name, r, up, down in (("three-term", p, 2 * (q * n + p), q * n + 2 * p - q),
                              ("weight-raising", p + q, 2 * p, 2 * p)):
        prev = series(n - 1, r, q) if n else AlphaPoly.zero()
        yield (n, p, q), c_next, (name, _two_term(series(n, r, q), prev, up, down, q))


def _two_term(member: AlphaPoly, prev: AlphaPoly, up: int, down: int, q: int) -> AlphaPoly:
    """(up x^a member - down prev) / q, in one pass: with member = b/dB and
    prev = c/dC, numerator k is up b_(k-1) dC - down c_k dB over q dB dC, at
    the member's grade."""
    up, down = up * prev.den, down * member.den
    return AlphaPoly._of(
        [up * b - down * c for b, c in zip_longest((0, *member.nums), prev.nums, fillvalue=0)],
        q * member.den * prev.den, member.grade)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _endpoint_value(n: int, p: int, q: int) -> Fraction:
    """The closed form G(2 lam + n) / (G(2 lam) n!) = (2 lam)_n / n!, per
    (n, p, q) for lam = p/q.  With (2 lam)_n = prod_(i<n) (2p + q i) / q^n
    it is the integer quotient prod_(i<n) (2p + q i) / (q^n n!)."""
    return Fraction(_rising(2 * p, q, n), q ** n * math.factorial(n))


# ---------------------------------------------------------------------------
# asserted sweeps: each builds its cases from (n, p, q) alone, with members
# from the route kernels looked up in `gegenbauer` when it runs, so a kernel
# rebound there is the one that runs


def check_constructor_agreement(n_max: int = 12) -> VerificationReport:
    """All three construction routes emit identical exact coefficients.  The
    coefficients are order-free by construction, since each route keys its
    polynomial by (n, weight) and an `AlphaPoly` carries no order."""
    _as_int(n_max, "n_max")

    def cases() -> Iterator[tuple]:
        series, recurrence = gegenbauer._series_coeffs, gegenbauer._recurrence_coeffs
        rodrigues = gegenbauer._rodrigues_coeffs
        for case in _sweep_cases(n_max):
            member = ("series", series(*case))
            yield case, member, ("recurrence", recurrence(*case))
            yield case, member, ("rodrigues", rodrigues(*case))

    return _exact_report(
        "constructor-agreement", _sweep_grid(n_max), cases(),
        notes=lambda count: f"{count // 2} (degree, weight) pairs, 3 routes each; coefficients "
                            "order-free by construction (keyed by degree and weight)")


def check_ode_annihilation(n_max: int = 12) -> VerificationReport:
    """The weighted operator annihilates every family member, symbolically."""
    series, zero = gegenbauer._series_coeffs, ("zero", AlphaPoly.zero())
    cases = (((n, p, q), ("residual", _ode_residual(series(n, p, q), n, p, q)), zero)
             for n, p, q in _sweep_cases(_as_int(n_max, "n_max")))
    return _exact_report(
        "ode-annihilation", _sweep_grid(n_max), cases,
        notes=lambda count: f"{count} (degree, weight) pairs, residual exactly zero")


_GENERATING_WEIGHTS, _GENERATING_N_MAX = (_HALF, Fraction(1), Fraction(3)), 10


def check_generating_function() -> VerificationReport:
    """Series rows of the generating function match from_series exactly,
    at `_GENERATING_WEIGHTS` up to degree `_GENERATING_N_MAX`."""
    def cases() -> Iterator[tuple]:
        series = gegenbauer._series_coeffs
        for lam in _GENERATING_WEIGHTS:
            p, q = lam.as_integer_ratio()
            for n, row in enumerate(generating_function_coeffs(lam, _GENERATING_N_MAX)):
                yield ((n, p, q), ("generating function", row),
                       ("series", list(series(n, p, q).rational_coeffs())))

    grid = f"n <= {_GENERATING_N_MAX}, weight in {{{', '.join(map(str, _GENERATING_WEIGHTS))}}}"
    return _exact_report("generating-function", grid, cases())


_LADDER_N_MAX, _LADDER_M_MAX = 8, 3


def check_derivative_ladder(n_max: int = 12) -> VerificationReport:
    """Derivative ladder to degree min(n_max, `_LADDER_N_MAX`), ladder
    length m <= min(`_LADDER_M_MAX`, n)."""
    top = min(_as_int(n_max, "n_max"), _LADDER_N_MAX)
    cases = (case for n, p, q in _sweep_cases(top)
             for case in _ladder_cases(n, p, q, min(_LADDER_M_MAX, n)))
    return _exact_report(
        "derivative-ladder", _sweep_grid(top, f", m <= {_LADDER_M_MAX}"), cases)


_RECURRENCE_PIVOT_MAX = 11


def check_recurrences(n_max: int = 12) -> VerificationReport:
    """Both recurrences at every pivot to min(n_max - 1, `_RECURRENCE_PIVOT_MAX`)."""
    top = min(_RECURRENCE_PIVOT_MAX, _as_int(n_max, "n_max") - 1)
    cases = (case for n, p, q in _sweep_cases(top) for case in _recurrence_cases(n, p, q))
    return _exact_report("recurrences", _sweep_grid(top, " (pivots)"), cases)


def check_endpoint_values(n_max: int = 12) -> VerificationReport:
    """Exact endpoint values to degree n_max."""
    series = gegenbauer._series_coeffs
    cases = (((n, p, q), ("coefficient sum", series(n, p, q).coefficient_sum()),
              ("G(2 lam + n) / (G(2 lam) n!)", _endpoint_value(n, p, q)))
             for n, p, q in _sweep_cases(_as_int(n_max, "n_max")))
    return _exact_report("endpoint-value", _sweep_grid(n_max), cases)


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


_SPECIAL_N_MAX, _SPECIAL_SAMPLES, _SPECIAL_REL_TOL = 10, 200, 1e-12


@functools.lru_cache(maxsize=_SWEEP_MEMO_SIZE)
def _special_reference(p: int, q: int) -> tuple:
    """The order-1 oracle of `check_special_cases` at the weight lam = p/q:
    the sample points, then per degree n <= `_SPECIAL_N_MAX` the column of
    C_n at those points by the float three-term recurrence the direct route
    uses (one recurrence per point), and the scale max(1, L1 norm of the
    classical coefficients)."""
    xs = tuple(_sample_grid(-1.0, _SPECIAL_SAMPLES))
    columns = tuple(zip(*(_gegenbauer_values(_SPECIAL_N_MAX, p / q, x) for x in xs)))
    scales = tuple(max(1.0, sum(abs(float(c)) for c in _oracle_coeffs(n, p, q)))
                   for n in range(_SPECIAL_N_MAX + 1))
    return xs, columns, scales


def check_special_cases() -> VerificationReport:
    """Weight 1/2 matches Legendre, weight 1 matches second-kind Chebyshev,
    the first-kind coefficients match their closed form (all exact, checked
    once per degree, since exact values carry no order), and at order 1
    the members' float values, as `eval` and `plot-data` take them (Horner
    on the series coefficients, or the closed-form Chebyshev sum past
    Horner's bound), match the float three-term recurrence the direct
    route uses, an independent evaluation.

    The numeric comparison is measured relative to the coefficient L1 norm
    (the natural evaluation scale; pointwise relative error is ill-defined
    at interior roots) and asserted within `_SPECIAL_REL_TOL`, at
    `_SPECIAL_SAMPLES` points and degrees to `_SPECIAL_N_MAX`.

    The oracles are kept per process: the classical and closed-form
    coefficients per degree (and weight), and the recurrence's columns
    with their scales per weight.  The members, their values at the
    sample points and every comparison run on each call, so a defect in a
    constructor or an evaluator fails a warm process too; the members'
    float forms are kept per (n, p, q), as `eval` keeps them."""
    grid = f"n <= {_SPECIAL_N_MAX}, order 1"
    series, member_values = gegenbauer._series_coeffs, gegenbauer._member_values

    def reductions() -> Iterator[tuple]:
        for n in range(_SPECIAL_N_MAX + 1):
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
        xs, columns, scales = _special_reference(p, q)
        for n, (column, scale) in enumerate(zip(columns, scales)):
            error = max(map(abs, map(operator.sub, member_values(n, p, q, xs, 1.0), column)))
            worst = max(worst, error / scale)
            if worst > _SPECIAL_REL_TOL:
                return VerificationReport(
                    "special-cases", grid, "fail", max_residual=worst,
                    witness=f"order-1 evaluation n={n}, weight={Fraction(p, q)}")
    return VerificationReport(
        "special-cases", grid, "numeric-pass", max_residual=worst,
        notes=f"reductions exact and order-free; order-1 evaluation residual "
              f"relative to coefficient L1 norm, {_SPECIAL_SAMPLES} points")


# ---------------------------------------------------------------------------
# recorded audits (never gate a run)


_ULTRA_BETAS, _ULTRA_ORDERS = (Fraction(0), _HALF, Fraction(3, 2)), (_HALF, Fraction(1))
_ULTRA_N_MAX = 6


def audit_ultraspherical() -> list[VerificationReport]:
    """Recorded findings for the shifted-weight family at `_ULTRA_BETAS` to
    degree `_ULTRA_N_MAX`: the variant operator, the series-form consistency
    against the generating function's binomial rows, and the alternate
    Rodrigues normalization.  Each exact object is built once per (shifted
    weight, degree), since it carries no order; only the variant's residual
    size is taken at an order, the largest of `_ULTRA_ORDERS`, where it peaks."""
    specs = [[UltrasphericalSpec(n, b) for n in range(_ULTRA_N_MAX + 1)] for b in _ULTRA_BETAS]
    grid = (f"n <= {_ULTRA_N_MAX}, shifted weight in {{{', '.join(map(str, _ULTRA_BETAS))}}}, "
            f"order in {{{', '.join(map(str, _ULTRA_ORDERS))}}}")
    reports = []

    # Variant operator: second-derivative term missing (1 - x^(2a)).  The
    # weighted operator annihilates every true member, so the first member
    # it does not is faulty, and fails the report in place of the variant.
    # The variant residual has grade 2, so its size grows with the order.
    top = max(_ULTRA_ORDERS)
    members = [(spec, ultraspherical(spec)) for row in specs for spec in row]
    weighted = ((spec, ode_residual(member, GegenbauerSpec(spec.n, spec.lam)))
                for spec, member in members)
    if fault := next(((spec, full) for spec, full in weighted if not full.is_zero), None):
        spec, full = fault
        reports.append(VerificationReport(
            "ultraspherical-ode-variant-operator", grid, "fail",
            max_residual=_residual_size(full, _ULTRA_ORDERS[0]),
            witness=f"beta={spec.beta}, n={spec.n}: weighted residual = {full}",
            asserted=False,
            notes="the weighted operator, which annihilates every true member, "
                  "leaves this residual, so the member itself is faulty; it is "
                  "not the variant's expected residual. max_residual taken at "
                  f"order {_ULTRA_ORDERS[0]}."))
    else:
        variants = [(spec, ultraspherical_ode_residual(member, spec)) for spec, member in members]
        # the first largest residual (size 0.0 where none is left), and the
        # lowest degree the variant leaves a residual at
        worst, spec, variant = max(((_residual_size(v, top), s, v) for s, v in variants),
                                   key=operator.itemgetter(0))
        residual_from = min((s.n for s, v in variants if not v.is_zero), default=_ULTRA_N_MAX + 1)
        if not residual_from:
            reach = "leaves a residual already at degree 0"
        elif residual_from > _ULTRA_N_MAX:
            reach = f"annihilates every case to n <= {_ULTRA_N_MAX}"
        else:
            reach = f"annihilates only n <= {residual_from - 1}"
        reports.append(VerificationReport(
            "ultraspherical-ode-variant-operator", grid,
            "fail" if worst else "exact-pass", max_residual=worst or None,
            witness=f"beta={spec.beta}, n={spec.n}, order={top}: residual = {variant}"
            if worst else None, asserted=False,
            notes="variant lacks the (1 - x^(2a)) factor on the second-derivative "
                  f"term; it {reach}. The weighted operator annihilates every case exactly."))

    # Series-form consistency at lam = beta + 1/2, against the independent
    # binomial expansion of the generating function.
    def series_cases() -> Iterator[tuple]:
        for row in specs:
            for spec, coeffs in zip(row, generating_function_coeffs(row[0].lam, _ULTRA_N_MAX)):
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
              for b in _ULTRA_BETAS]
    constant_error = max(abs(ultraspherical_rodrigues(row[0])[0] - c) / c
                         for row, c in zip(specs, closed))
    constants = ", ".join(f"{b}: {c:.12g}" for b, c in zip(_ULTRA_BETAS, closed))
    exact = _exact_report(
        "ultraspherical-rodrigues-normalization", grid, rodrigues_cases(), asserted=False,
        notes=lambda count: (
            "route = G(2b+1) / (2^b G(b+1)) times the Rodrigues member at weight b+1/2, "
            f"which equals the series exactly in all {count} (degree, shifted weight) "
            "cases; the constant is the route's degree-0 value, compared in floats "
            f"with 2^b G(b+1/2)/sqrt(pi) (Legendre duplication): {constants}. "
            "Recorded, not rescaled."))
    reports.append(exact if not exact.passed else VerificationReport(
        exact.identity, grid, "numeric-pass" if constant_error < 1e-9 else "fail",
        max_residual=constant_error, notes=exact.notes, asserted=False))
    return reports


_CHEBYSHEV_N_MAX, _CHEBYSHEV_M_MAX = 8, 3


def audit_chebyshev_limit() -> list[VerificationReport]:
    """Recorded findings at the first-kind (weight -> 0) boundary, degrees
    to `_CHEBYSHEV_N_MAX` and ladder lengths to `_CHEBYSHEV_M_MAX`.  Both
    are exact and order-free."""
    grid = f"n <= {_CHEBYSHEV_N_MAX}"
    reports = []

    cases = ((f"n={n}", ("first-kind", chebyshev_t(n)),
              ("rodrigues", chebyshev_t_rodrigues(n))) for n in range(_CHEBYSHEV_N_MAX + 1))
    reports.append(_exact_report(
        "chebyshev-rodrigues-limit", grid, cases, asserted=False,
        notes="boundary Rodrigues route (exponent n - 1/2) equals the classical "
              "first-kind coefficients exactly; no limit rescaling required"))

    # Ladder out of the first kind: the variant constant 2^m a^m (m-1)! is
    # short by n/2; measure the exact ratio.
    cases = []
    for n in range(1, _CHEBYSHEV_N_MAX + 1):
        lhs = chebyshev_t(n)
        for m in range(1, min(_CHEBYSHEV_M_MAX, n) + 1):
            lhs = lhs.d_alpha()
            variant = from_series(GegenbauerSpec(n - m, m)).scale(
                Fraction(2) ** m * math.factorial(m - 1), power=m)
            cases.append((n, m, lhs, variant))
    mismatch = next((f"n={n}, m={m}" for n, m, lhs, variant in cases if lhs != variant), None)
    reports.append(VerificationReport(
        "chebyshev-derivative-ladder", grid + f", m <= {_CHEBYSHEV_M_MAX}",
        "fail" if mismatch else "exact-pass",
        witness=mismatch, asserted=False,
        notes="measured ratio lhs/variant is exactly n/2 for every case"
              if all(lhs == variant.scale(Fraction(n, 2)) for n, m, lhs, variant in cases) else
              "measured ratio lhs/variant is NOT the uniform n/2",))
    return reports


# ---------------------------------------------------------------------------
# drivers


# Every asserted suite by its name in `report.SUITE_NAMES`, in that order.
# Each builder takes the degree bound and looks its check up by name at call
# time, so a check rebound in this module (as the perfbench tracer does, or a
# test that patches one) is the one that runs.
SUITES: dict[str, Callable[[int], VerificationReport]] = dict(zip(SUITE_NAMES, (
    lambda n_max: check_constructor_agreement(n_max),
    lambda n_max: check_ode_annihilation(n_max),
    lambda n_max: check_generating_function(),
    lambda n_max: check_derivative_ladder(n_max),
    lambda n_max: check_recurrences(n_max),
    lambda n_max: check_endpoint_values(n_max),
    lambda n_max: check_special_cases(),
    lambda n_max: orthogonality_check(n_max=n_max),
    lambda n_max: normalization_audit(),
), strict=True))


def run_asserted_checks(n_max: int = 12, *, suite: str = "all") -> list[VerificationReport]:
    """The asserted suites of `SUITES` in report order: every one, or only
    the one named by `suite`.  The sweeps need n_max >= 3."""
    _as_int(n_max, "n_max")
    if suite != "all" and suite not in SUITES:
        raise ParameterError(
            f"unknown suite {suite!r}; choose from {', '.join(('all', *SUITES))}")
    if n_max < 3:
        raise ParameterError(f"--n-max must be >= 3 for the sweeps, got {n_max}")
    return [build(n_max) for name, build in SUITES.items() if suite in ("all", name)]


@functools.cache
def _recorded_audits() -> tuple[VerificationReport, ...]:
    return tuple(audit_ultraspherical() + audit_chebyshev_limit())


def run_recorded_audits() -> list[VerificationReport]:
    """All recorded audits owned by this module.

    They take no input, so they are computed once per process; each call
    returns a new list of the same frozen reports."""
    return list(_recorded_audits())
