"""Conformable Gegenbauer (ultraspherical) polynomials in the x^(k*a) basis.

Three construction routes are provided: the explicit series, the three-term
recurrence, and the Rodrigues product form.  They produce the same exact
coefficient sequence, and that sequence does not depend on the order a: the
factor a^n contributed by n conformable derivatives in the Rodrigues route
cancels symbolically against the a^(-n) in its prefactor.

Each route runs in Python integers: with the weight lam = p/q it carries
integer coefficients over one integer denominator (a power of q times
factorials for the series and the recurrence, a fixed power of the
denominator of lam - 1/2 for the Rodrigues kernel); no route builds a
Fraction per coefficient.  No route calls another; each keeps its own
derivation, so their agreement remains a check.

Because the coefficients do not depend on the order, each route's integer
work is memoized per process by (n, lam) in its own bounded cache, in
lowest terms; the public function attaches the spec's order through
`AlphaPoly._of`.  No route reads another's memo, so a sweep builds each
member once per route and still compares three independent results.

Special cases: weight 1/2 gives the Legendre family, weight 1 the Chebyshev
second-kind family, and the first-kind family (the weight -> 0 limit) is
provided directly through its classical coefficients.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .alphapoly import (
    AlphaPoly,
    ParameterError,
    RationalLike,
    _as_count,
    _as_fraction,
    _as_order,
    gamma_quotient,
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
_ONE = Fraction(1)
# Entries per route memo.  Each suite of a run scans the degrees of every
# weight once, so an LRU memo smaller than that cycle never hits in the next
# suite: at --n-max 96 the standard grid's 4 weights take 4 * 97 entries, and
# the ladder and recurrence suites add shifted weights.
_MEMO_SIZE = 1024


def _check_weight(lam: RationalLike) -> Fraction:
    lam = _as_fraction(lam)
    if lam <= 0:
        raise ParameterError(f"weight parameter must be positive, got {lam}")
    return lam


@dataclass(frozen=True)
class GegenbauerSpec:
    """Parameter triple: degree n >= 0, weight lam > 0, order alpha in (0, 1]."""

    n: int
    lam: Fraction
    alpha: Fraction

    def __post_init__(self) -> None:
        _as_count(self.n, "degree")
        object.__setattr__(self, "lam", _check_weight(self.lam))
        object.__setattr__(self, "alpha", _as_order(self.alpha))


@dataclass(frozen=True)
class UltrasphericalSpec:
    """Parameter triple for the shifted-weight family: beta > -1/2."""

    n: int
    beta: Fraction
    alpha: Fraction

    def __post_init__(self) -> None:
        _as_count(self.n, "degree")
        beta = _as_fraction(self.beta)
        if beta <= Fraction(-1, 2):
            raise ParameterError(f"shifted weight must exceed -1/2, got {beta}")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "alpha", _as_order(self.alpha))

    @property
    def lam(self) -> Fraction:
        return self.beta + _HALF


# ---------------------------------------------------------------------------
# construction routes


def _lowest_terms(nums: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """nums / den in `AlphaPoly`'s canonical form, for a memo to keep."""
    poly = AlphaPoly._of(_ONE, nums, den, 0)
    return poly.nums, poly.den


@lru_cache(maxsize=_MEMO_SIZE)
def _series_coeffs(n: int, lam: Fraction) -> tuple[tuple[int, ...], int]:
    """Body of `from_series`, in lowest terms.

    Each term follows from the previous one by the ratio
    -k (k-1) / (4 (s+1) (lam+n-s-1)) with k = n - 2s, carried as an integer
    numerator over a running integer denominator.  A second pass, from the
    last term up, multiplies each term by the denominator steps after it,
    so all share the final denominator at one product per term."""
    p, q = lam.numerator, lam.denominator
    num = 2 ** n  # term s = 0: 2^n (lam)_n / n! = 2^n prod(p + q i) / (q^n n!)
    for i in range(n):
        num *= p + q * i
    nums = [0] * (n + 1)
    steps = []  # term s is nums[n - 2s] / (q^n n! steps[0] ... steps[s-1])
    for s in range(n // 2 + 1):
        k = n - 2 * s
        nums[k] = num
        if k > 1:
            steps.append(4 * (s + 1) * (p + q * (n - s - 1)))
            num *= -k * (k - 1) * q
    tail = 1
    for s in range(len(steps), 0, -1):
        nums[n - 2 * s] *= tail
        tail *= steps[s - 1]
    nums[n] *= tail
    return _lowest_terms(nums, q ** n * math.factorial(n) * tail)


def from_series(spec: GegenbauerSpec) -> AlphaPoly:
    """Explicit series: coefficient of x^((n-2s)*a) is
    (-1)^s (lam)_(n-s) 2^(n-2s) / (s! (n-2s)!)."""
    nums, den = _series_coeffs(spec.n, spec.lam)
    return AlphaPoly._of(spec.alpha, list(nums), den, 0)


@lru_cache(maxsize=_MEMO_SIZE)
def _recurrence_coeffs(n: int, lam: Fraction) -> tuple[tuple[int, ...], int]:
    """Body of `from_recurrence`, in lowest terms.

    With lam = p/q it runs on P_m = q^m m! C_m, whose coefficients are
    integers: P_(m+1) = 2(qm+p) x^a P_m - qm(qm+2p-q) P_(m-1).  Only the
    entries of the member's parity are touched; C_n = P_n / (q^n n!)."""
    p, q = lam.numerator, lam.denominator
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
    return _lowest_terms(cur, q ** n * math.factorial(n))


def from_recurrence(spec: GegenbauerSpec) -> AlphaPoly:
    """Three-term recurrence (m+1) C_(m+1) = 2(m+lam) x^a C_m - (m+2lam-1) C_(m-1),
    seeded with C_(-1) = 0 and C_0 = 1."""
    nums, den = _recurrence_coeffs(spec.n, spec.lam)
    return AlphaPoly._of(spec.alpha, list(nums), den, 0)


def _rodrigues_kernel(alpha: Fraction, n: int, c: Fraction) -> AlphaPoly:
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
    num = 1
    for i in range(1, n + 1):
        num *= r + t * i
    total: list[int] = []   # sum so far, integer coefficients over t^n
    minus_power = [1]       # (x^a - 1)^(n-k)
    for k in range(n, -1, -1):
        # total * (x^a + 1) + f_k * (x^a - 1)^(n-k)
        total = [lo + hi + num * m
                 for lo, hi, m in zip([0] + total, total + [0], minus_power)]
        if k:
            num = num * k * (r + t * k) // ((n - k + 1) * (t * (n + 1 - k) + r))
            minus_power = [lo - hi for lo, hi in zip([0] + minus_power, minus_power + [0])]
    return AlphaPoly._of(alpha, total, t ** n, n)


@lru_cache(maxsize=_MEMO_SIZE)
def _rodrigues_coeffs(n: int, lam: Fraction) -> tuple[tuple[int, ...], int]:
    """Body of `from_rodrigues`, in lowest terms; the kernel runs at order 1,
    which its integers do not depend on."""
    magnitude = (gamma_quotient(2 * lam + n, 2 * lam)
                 / gamma_quotient(n + lam + _HALF, lam + _HALF)
                 / (Fraction(2) ** n * math.factorial(n)))
    poly = _rodrigues_kernel(_ONE, n, lam - _HALF).scale(magnitude, power=-n)
    return poly.nums, poly.den


def from_rodrigues(spec: GegenbauerSpec) -> AlphaPoly:
    """Rodrigues product form.  The prefactor

        G(2 lam + n) G(lam + 1/2) / ((-2a)^n G(2 lam) n! G(n + lam + 1/2))

    carries a^(-n), which cancels the kernel's a^n exactly; the (-1)^n of
    (-2a)^n cancels the kernel's extracted sign."""
    nums, den = _rodrigues_coeffs(spec.n, spec.lam)
    return AlphaPoly._of(spec.alpha, list(nums), den, 0)


# ---------------------------------------------------------------------------
# shifted-weight (ultraspherical) surface


def ultraspherical(spec: UltrasphericalSpec) -> AlphaPoly:
    """Shifted-weight family T_n^(beta) = C_n^(beta + 1/2)."""
    return from_series(GegenbauerSpec(spec.n, spec.lam, spec.alpha))


def ultraspherical_rodrigues(spec: UltrasphericalSpec) -> tuple[float, ...]:
    """Alternate Rodrigues route for the shifted-weight family, with the
    prefactor G(n + 2 beta + 1) / (2^(n+beta) a^n n! G(n + beta + 1)).

    The 2^beta and the gamma quotient are irrational for non-integer beta, so
    this route returns float coefficients.  It reproduces `ultraspherical`
    only up to a constant factor; the verification audit measures and records
    that factor rather than rescaling here.
    """
    n, beta, alpha = spec.n, spec.beta, spec.alpha
    kernel = _rodrigues_kernel(alpha, n, beta)
    b = float(beta)
    prefactor = math.gamma(n + 2 * b + 1) / (
        2.0 ** (n + b) * math.factorial(n) * math.gamma(n + b + 1))
    # the prefactor's a^(-n) cancels the kernel's grade n, so neither is applied
    return tuple(v / kernel.den * prefactor for v in kernel.nums)


# ---------------------------------------------------------------------------
# special cases


def legendre(n: int, alpha: RationalLike) -> AlphaPoly:
    """Weight 1/2: the conformable Legendre polynomial."""
    return from_series(GegenbauerSpec(n, _HALF, alpha))


def chebyshev_t(n: int, alpha: RationalLike) -> AlphaPoly:
    """First-kind Chebyshev coefficients on the x^(k*a) basis.

    The weight -> 0 limit of the family is degenerate (every polynomial's
    limit is 0 for n >= 1), so the first kind is pinned by convention to the
    classical T_n coefficients."""
    _as_count(n, "degree")
    alpha = _as_order(alpha)
    prev = AlphaPoly.constant(alpha, 1)
    if n == 0:
        return prev
    cur = AlphaPoly(alpha, (0, 1))
    for _ in range(n - 1):
        prev, cur = cur, cur.shift(1).scale(2) - prev
    return cur


def chebyshev_t_rodrigues(n: int, alpha: RationalLike) -> AlphaPoly:
    """First-kind polynomials through the Rodrigues route at the weight -> 0
    boundary (exponent n - 1/2), prefactor 2^n n! / (a^n (2n)!).

    Exact; agrees with `chebyshev_t` identically, which the verification
    audit records."""
    _as_count(n, "degree")
    magnitude = Fraction(2 ** n * math.factorial(n), math.factorial(2 * n))
    return _rodrigues_kernel(_as_order(alpha), n, -_HALF).scale(magnitude, power=-n)


def classical_oracle(n: int, lam: RationalLike) -> list[Fraction]:
    """Classical Gegenbauer coefficients (ascending powers of the plain
    variable) by the standard three-term recurrence on coefficient lists.

    Independent oracle for tests; the constructors never call it.  Memoized
    by (n, lam) like the routes; each call returns a new list.
    """
    _as_count(n, "degree")
    return list(_oracle_coeffs(n, _check_weight(lam)))


@lru_cache(maxsize=_MEMO_SIZE)
def _oracle_coeffs(n: int, lam: Fraction) -> tuple[Fraction, ...]:
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
