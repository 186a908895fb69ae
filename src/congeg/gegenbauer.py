"""Conformable Gegenbauer (ultraspherical) polynomials in the x^(k*a) basis.

Three construction routes are provided: the explicit series, the three-term
recurrence, and the Rodrigues product form.  They produce the same exact
coefficient sequence, and that sequence does not depend on the order a: the
factor a^n contributed by n conformable derivatives in the Rodrigues route
cancels symbolically against the a^(-n) in its prefactor.

Each route runs in Python integers: with the weight lam = p/q it carries
integer coefficients over one integer denominator (a power of q times
factorials for the series and the recurrence, a fixed power of the
denominator of lam - 1/2 for the Rodrigues kernel), and the Rodrigues
prefactor is a quotient of two integer rising products (`alphapoly._rising`);
no route does arithmetic on a Fraction.  No route calls another; each
keeps its own derivation, so their agreement remains a check.

Because the coefficients do not depend on the order, and neither a spec nor
an `AlphaPoly` carries one, each route's finished polynomial is memoized per
process by (n, p, q), for lam = p/q in lowest terms, in its own bounded
cache; the public function passes the checked weight's integers and returns
the memo's immutable object as it is.  No route reads another's memo, so a
sweep builds each member once per route and still compares three
independent results.  A member's float evaluator is memoized the same way,
by `_member_form`, from the closed form of its Chebyshev coefficients.

Special cases: weight 1/2 gives the Legendre family, weight 1 the Chebyshev
second-kind family, and the first-kind family (the weight -> 0 limit) is
provided directly through its classical coefficients.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .alphapoly import (
    AccuracyError,
    AlphaPoly,
    ParameterError,
    RationalLike,
    _Record,
    _as_count,
    _as_fraction,
    _by_point_or_column,
    _fits_horner,
    _float_values,
    _horner_values,
    _rising,
)

__all__ = [
    "GegenbauerSpec",
    "UltrasphericalSpec",
    "chebyshev_t",
    "chebyshev_t_rodrigues",
    "classical_oracle",
    "from_recurrence",
    "from_rodrigues",
    "from_series",
    "legendre",
    "ultraspherical",
    "ultraspherical_rodrigues",
]

_HALF = Fraction(1, 2)
# Polynomials per route memo.  Each suite of a run scans the degrees of
# every weight once, so an LRU memo smaller than that cycle never hits in
# the next suite: at --n-max 96 the standard grid's 4 weights take 4 * 97
# entries, and the ladder and recurrence suites add shifted weights.
_MEMO_SIZE = 1024


def _check_weight(lam: RationalLike) -> Fraction:
    lam = _as_fraction(lam)
    if lam <= 0:
        raise ParameterError(f"weight parameter must be positive, got {lam}")
    return lam


class GegenbauerSpec(_Record):
    """Parameter pair: degree n >= 0, weight lam > 0; a member has no order."""

    _fields = ("n", "lam")
    n: int
    lam: Fraction

    def __init__(self, n: int, lam: RationalLike) -> None:
        _as_count(n, "degree")
        self.__dict__.update(n=n, lam=_check_weight(lam))


class UltrasphericalSpec(_Record):
    """Parameter pair for the shifted-weight family: beta > -1/2."""

    _fields = ("n", "beta")
    n: int
    beta: Fraction

    def __init__(self, n: int, beta: RationalLike) -> None:
        _as_count(n, "degree")
        beta = _as_fraction(beta)
        if beta <= Fraction(-1, 2):
            raise ParameterError(f"shifted weight must exceed -1/2, got {beta}")
        self.__dict__.update(n=n, beta=beta)

    @property
    def lam(self) -> Fraction:
        return self.beta + _HALF


# ---------------------------------------------------------------------------
# construction routes


@lru_cache(maxsize=_MEMO_SIZE)
def _series_coeffs(n: int, p: int, q: int) -> AlphaPoly:
    """Body of `from_series`.

    Every term is an integer over D = q^n n! (DLMF 18.5.10): term s,
    k = n - 2s, is (-1)^s 2^k prod_(i<n-s) (p + q i) q^s n! / (s! k!) / D,
    and n! / (s! k!) is an integer.  So each follows from the one before it
    by the ratio -k (k-1) q / (4 (s+1) (p + q(n-s-1))) in one exact division."""
    num = _rising(p, q, n) << n  # term s = 0: 2^n prod(p + q i)
    nums = [0] * (n + 1)
    for s in range(n // 2 + 1):
        k = n - 2 * s
        nums[k] = num
        if k > 1:  # the terms end at k = 0 or 1
            num = num * -k * (k - 1) * q // (4 * (s + 1) * (p + q * (n - s - 1)))
    return AlphaPoly._of(nums, q ** n * math.factorial(n), 0)


def from_series(spec: GegenbauerSpec) -> AlphaPoly:
    """Explicit series: coefficient of x^((n-2s)*a) is
    (-1)^s (lam)_(n-s) 2^(n-2s) / (s! (n-2s)!)."""
    return _series_coeffs(spec.n, *spec.lam.as_integer_ratio())


@lru_cache(maxsize=_MEMO_SIZE)
def _member_form(n: int, p: int, q: int) -> tuple:
    """The float evaluator of C_n at lam = p/q, (odd, coeffs, bound, scale):
    `from_series`' own Horner coefficients, as (None, coeffs, None, None),
    where float Horner's bound holds; otherwise a Clenshaw sum, with no
    series built, unless its bound refuses the degree.

    Its Chebyshev coefficients are b_(n-2k) = (2 - [n = 2k]) (lam)_k
    (lam)_(n-k) / (k! (n-k)!) for k <= n/2 (DLMF 18.5.11).  Over
    D = q^n n! they are the integers (2 - [n = 2k]) B_k, from
    B_0 = prod_(i<n) (p + q i) by the exact ratio
    B_(k+1) = B_k (p + qk)(n - k) / ((k + 1)(p + q(n - k - 1))).  Every
    b_j > 0 for lam > 0, so sum |b_j| = p(1) = (2 lam)_n / n! (DLMF 18.6.1),
    over D the integer total = prod_(i<n) (2p + q i).
    Horner is decided as `AlphaPoly._horner` decides it: when the leading
    coefficient 2^n B_0 / D alone fails Horner's test, so does sum |c_k|;
    otherwise the series is built and tested exactly.  Past Horner, a
    `bound` above 1e-10 of `scale` = max(1, p(1)), as every weight >= 1/2
    has from degree 808 on, raises AccuracyError before anything is
    carried; otherwise one pass carries B_k and rounds each b_j once,
    highest j first, as the Clenshaw sum takes them.  A member has one
    parity, odd = n % 2.

    With w = 2u^2 - 1, phi_k = T_2k(u) = T_k(w) and phi_k = T_(2k+1)(u)
    both follow phi_(k+1) = 2w phi_k - phi_(k-1), from phi_0 = 1,
    phi_1 = w for the even part and phi_0 = u, phi_1 = u (2w - 1) for the
    odd one.  So each part is a Clenshaw sum (Clenshaw 1955) of length
    m + 1 or less, m = floor(n/2): y_k = c_k + w2 y_(k+1) - y_(k+2) with
    w2 = 2w, from y_(m+1) = y_(m+2) = 0, ends in S = y_0 - w y_1 (even)
    or S = u (y_0 - y_1) (odd).  Exactly,
    y_k = sum_(j>=k) c_j U_(j-k)(w), so |y_k| <= sum_(j>=k) (j-k+1) |c_j|
    for |u| <= 1, and |phi_k| <= 1.

    `bound` is (5.5 m^2 + 7.5 m + 6) eps * sum |b_j|, for |u| <= 1 and
    up to second-order terms.  Each term below is eps * sum_j g(j) |c_j|
    for a weight g, and the weights add up to at most 5.5 j^2 + 7.5 j + 6
    <= 5.5 m^2 + 7.5 m + 6 (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sections 3 and 5):
    - rounding c_k once errs by eps |c_k|, and reaches S times phi_k: 1;
    - step k, fl(fl(c_k + fl(w2 y_(k+1))) - y_(k+2)), errs by at most
      e_k = eps (|c_k| + 4 |y_(k+1)| + |y_k|), and an error made at step
      k reaches S as e_k phi_k, as if c_k were off by e_k; summed over
      k, 1 + 2j(j+1) + (j+1)(j+2)/2 = 2.5 j^2 + 3.5 j + 2;
    - w2 = fl(fl(4u u) - 2) errs by at most 4 eps + 2 eps = 6 eps, and
      |d phi_k / d w2| = |d phi_k / d w| / 2 <= k(k+1) / 2 (k^2 for
      T_k(w), k(k+1) for the odd part, at u = +-1): 3 j(j+1);
    - the final combination: fl(y_0 - fl(w y_1)) errs by
      eps (|y_1| + |S|) <= eps sum (j+1) |c_j|, fl(u fl(y_0 - y_1)) by
      2 eps |S| <= 2 eps sum |c_j|: at most j + 2;
    - adding the two parity parts: 1.
    A member has one part, so the last term is slack."""
    num, total = _rising(p, q, n), _rising(2 * p, q, n)
    den = q ** n * math.factorial(n)
    if _fits_horner(n, num << n, den, total):
        horner = _series_coeffs(n, p, q)._horner
        if horner is not None:
            return None, horner, None, None
    m, p1 = n // 2, total / den
    bound, scale = (5.5 * m * m + 7.5 * m + 6) * 2.0 ** -53 * p1, max(1.0, p1)
    if bound > 1e-10 * scale:
        raise AccuracyError(
            f"Chebyshev evaluation bound {bound:.3g} exceeds 1e-10 of the "
            f"scale {scale:.6g} at degree {n}")
    coeffs = []
    for k in range(n // 2):
        coeffs.append(2 * num / den)
        # up to B_(n//2) only: past it, the divisor of lam = 1 reaches 0
        num = num * (p + q * k) * (n - k) // ((k + 1) * (p + q * (n - k - 1)))
    num <<= n % 2  # doubled, unless it is the middle term b_0 of an even degree
    coeffs.append(num / den)
    return n % 2, tuple(coeffs), bound, scale


def _member_values(n: int, p: int, q: int, xs, a: float) -> list[float]:
    """Values of C_n at lam = p/q at the points xs and order a, through
    `_float_values` on `_member_form`: below Horner's bound the floats
    `from_series(GegenbauerSpec(n, p/q)).values` gives, otherwise the
    Clenshaw sum, within `bound` of the exact value at each u.  The
    Clenshaw sum takes |u| <= 1 only: one pass over the points first
    raises ParameterError at the first one past it.  A degree
    `_member_form` refuses raises AccuracyError.  Either loop body runs
    by `_by_point_or_column`, with the same bits on either path."""
    def evaluate(us: list[float]) -> list[float]:
        odd, coeffs, _, _ = _member_form(n, p, q)
        if odd is None:
            return _horner_values(coeffs, us)
        for u in us:
            if not -1.0 <= u <= 1.0:
                raise ParameterError(f"x^a = {u!r} lies outside [-1, 1], where the "
                                     "Chebyshev evaluator's bound holds")

        def clenshaw(u):
            w2 = 4.0 * u * u - 2.0
            y1 = y2 = 0.0
            for c in coeffs:
                y1, y2 = c + w2 * y1 - y2, y1
            return u * (y1 - y2) if odd else y1 - 0.5 * w2 * y2

        return _by_point_or_column(clenshaw, us)

    return _float_values(xs, a, n, 0, evaluate)


@lru_cache(maxsize=_MEMO_SIZE)
def _recurrence_coeffs(n: int, p: int, q: int) -> AlphaPoly:
    """Body of `from_recurrence`.

    With lam = p/q it runs on P_m = q^m m! C_m, whose coefficients are
    integers: P_(m+1) = 2(qm+p) x^a P_m - qm(qm+2p-q) P_(m-1).  Only the
    entries of the member's parity are touched; C_n = P_n / (q^n n!)."""
    prev: list[int] = []
    cur = [1]
    for m in range(n):
        up, down = 2 * (q * m + p), q * m * (q * m + 2 * p - q)
        nxt = [0] * (m + 2)
        for k in range(m % 2, m + 1, 2):
            nxt[k + 1] = up * cur[k]
        for k in range((m + 1) % 2, m, 2):
            nxt[k] -= down * prev[k]
        prev, cur = cur, nxt
    return AlphaPoly._of(cur, q ** n * math.factorial(n), 0)


def from_recurrence(spec: GegenbauerSpec) -> AlphaPoly:
    """Three-term recurrence (m+1) C_(m+1) = 2(m+lam) x^a C_m - (m+2lam-1) C_(m-1),
    seeded with C_(-1) = 0 and C_0 = 1."""
    return _recurrence_coeffs(spec.n, *spec.lam.as_integer_ratio())


def _rodrigues_kernel(n: int, c: Fraction) -> AlphaPoly:
    """Leibniz expansion of the n-fold conformable derivative of
    (1 - x^(2a))^(n+c), divided by (1 - x^(2a))^c and by the sign (-1)^n:

        sum_k f_k * a^n * (x^a + 1)^k * (x^a - 1)^(n-k),
        f_k = binom(n,k) G(n+c+1)^2 / (G(c+k+1) G(n+c-k+1)).

    The sum is taken by Horner's rule in (x^a + 1), carrying the power of
    (x^a - 1) along, on integer coefficient lists, so each product with
    (x^a +- 1) is a shift and an add; it costs O(n^2).  With c = r/t each
    f_k has n factors (c + j) over t, so every t^n f_k is an integer: from
    t^n f_n = prod_(i=1..n) (r + t i) each next one follows exactly by the
    ratio f_(k-1)/f_k = k (r + t k) / ((n-k+1) (t (n+1-k) + r)), and the
    sum stays over t^n.  The a^n from the n derivatives is the kernel's grade.
    """
    r, t = c.numerator, c.denominator
    num = _rising(r + t, t, n)
    total: list[int] = []   # sum so far, integer coefficients over t^n
    minus_power = [1]       # (x^a - 1)^(n-k)
    for k in range(n, -1, -1):
        # total * (x^a + 1) + f_k * (x^a - 1)^(n-k)
        total = [lo + hi + num * m
                 for lo, hi, m in zip([0] + total, total + [0], minus_power)]
        if k:
            num = num * k * (r + t * k) // ((n - k + 1) * (t * (n + 1 - k) + r))
            minus_power = [lo - hi for lo, hi in zip([0] + minus_power, minus_power + [0])]
    return AlphaPoly._of(total, t ** n, n)


@lru_cache(maxsize=_MEMO_SIZE)
def _rodrigues_coeffs(n: int, p: int, q: int) -> AlphaPoly:
    """Body of `from_rodrigues`: the kernel at c = lam - 1/2 times the
    prefactor's magnitude (2 lam)_n / ((lam + 1/2)_n 2^n n!) and a^(-n).

    With lam = p/q, (2 lam)_n = prod_(i<n) (2p + q i) / q^n and
    (lam + 1/2)_n = prod_(i<n) (2p + q + 2q i) / (2q)^n, so the powers of
    q and of 2 cancel and the magnitude is the integer quotient
    top / bottom, top = prod_(i<n) (2p + q i) and
    bottom = n! prod_(i<n) (2p + q + 2q i), applied in one `_times`."""
    top = _rising(2 * p, q, n)
    bottom = math.factorial(n) * _rising(2 * p + q, 2 * q, n)
    return _rodrigues_kernel(n, Fraction(2 * p - q, 2 * q))._times(top, bottom, -n)


def from_rodrigues(spec: GegenbauerSpec) -> AlphaPoly:
    """Rodrigues product form.  The prefactor

        G(2 lam + n) G(lam + 1/2) / ((-2a)^n G(2 lam) n! G(n + lam + 1/2))

    carries a^(-n), which cancels the kernel's a^n exactly; the (-1)^n of
    (-2a)^n cancels the kernel's extracted sign."""
    return _rodrigues_coeffs(spec.n, *spec.lam.as_integer_ratio())


# ---------------------------------------------------------------------------
# shifted-weight (ultraspherical) surface


def ultraspherical(spec: UltrasphericalSpec) -> AlphaPoly:
    """Shifted-weight family T_n^(beta) = C_n^(beta + 1/2)."""
    return from_series(GegenbauerSpec(spec.n, spec.lam))


def ultraspherical_rodrigues(spec: UltrasphericalSpec) -> tuple[float, ...]:
    """Alternate Rodrigues route for the shifted-weight family, with the
    prefactor G(n + 2 beta + 1) / (2^(n+beta) a^n n! G(n + beta + 1)).

    That prefactor is the degree-free constant
    G(2 beta + 1) / (2^beta G(beta + 1)) times the rational
    (2 beta + 1)_n / ((beta + 1)_n 2^n n! a^n), and the rational times the
    kernel at exponent beta is `from_rodrigues` at weight beta + 1/2.  So
    the route is that exact member, each coefficient rounded once, times
    the constant: only the constant is a float, and no gamma value grows
    with the degree.  The constant is irrational for non-integer beta, so
    this route returns float coefficients.  It reproduces `ultraspherical`
    only up to that constant; the verification audit records it rather
    than rescaling here.  A constant or coefficient past the float range
    raises AccuracyError, as `AlphaPoly.values` does.
    """
    member = _rodrigues_coeffs(spec.n, *spec.lam.as_integer_ratio())
    try:
        b = float(spec.beta)
        constant = math.gamma(2 * b + 1) / (2.0 ** b * math.gamma(b + 1))
        coeffs = tuple(constant * (v / member.den) for v in member.nums)
        if all(map(math.isfinite, coeffs)):
            return coeffs
    except OverflowError:
        pass
    raise AccuracyError(f"a float coefficient of the degree-{spec.n} shifted-weight "
                        f"Rodrigues route at beta {spec.beta} lies past the float range")


# ---------------------------------------------------------------------------
# special cases


def legendre(n: int) -> AlphaPoly:
    """Weight 1/2: the conformable Legendre polynomial."""
    return _series_coeffs(_as_count(n, "degree"), 1, 2)


def chebyshev_t(n: int) -> AlphaPoly:
    """First-kind Chebyshev coefficients on the x^(k*a) basis.

    The weight -> 0 limit of the family is degenerate (every polynomial's
    limit is 0 for n >= 1), so the first kind is pinned by convention to the
    classical T_n coefficients.  Memoized by n like the routes."""
    return _chebyshev_t_coeffs(_as_count(n, "degree"))


@lru_cache(maxsize=_MEMO_SIZE)
def _chebyshev_t_coeffs(n: int) -> AlphaPoly:
    prev = AlphaPoly.constant(1)
    if n == 0:
        return prev
    cur = AlphaPoly((0, 1))
    for _ in range(n - 1):
        prev, cur = cur, cur.shift(1).scale(2) - prev
    return cur


def chebyshev_t_rodrigues(n: int) -> AlphaPoly:
    """First-kind polynomials through the Rodrigues route at the weight -> 0
    boundary (exponent n - 1/2), prefactor 2^n n! / (a^n (2n)!).

    Exact; agrees with `chebyshev_t` identically, which the verification
    audit records."""
    _as_count(n, "degree")
    return _rodrigues_kernel(n, -_HALF)._times(2 ** n * math.factorial(n),
                                               math.factorial(2 * n), -n)


def classical_oracle(n: int, lam: RationalLike) -> list[Fraction]:
    """Classical Gegenbauer coefficients (ascending powers of the plain
    variable) by the standard three-term recurrence on coefficient lists.

    Independent oracle for tests; the constructors never call it.  Memoized
    by (n, p, q) like the routes; each call returns a new list.
    """
    _as_count(n, "degree")
    return list(_oracle_coeffs(n, *_check_weight(lam).as_integer_ratio()))


@lru_cache(maxsize=_MEMO_SIZE)
def _oracle_coeffs(n: int, p: int, q: int) -> tuple[Fraction, ...]:
    lam = Fraction(p, q)
    prev = [Fraction(1)]
    if n == 0:
        return tuple(prev)
    cur = [Fraction(0), 2 * lam]
    for m in range(2, n + 1):
        up, down = 2 * (m - 1 + lam) / m, (m + 2 * lam - 2) / m
        nxt = [Fraction(0)] * (m + 1)
        for j, coeff in enumerate(cur):
            nxt[j + 1] += up * coeff
        for j, coeff in enumerate(prev):
            nxt[j] -= down * coeff
        prev, cur = cur, nxt
    return tuple(cur)
