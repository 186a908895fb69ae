"""Conformable Gegenbauer (ultraspherical) polynomials in the x^(k*a) basis.

Three construction routes are provided: the explicit series, the three-term
recurrence, and the Rodrigues product form.  They produce the same exact
coefficient sequence, and that sequence does not depend on the order a: the
factor a^n contributed by n conformable derivatives in the Rodrigues route
cancels symbolically against the a^(-n) in its prefactor.

Each route runs in Python integers: with the weight lam = p/q it carries
integer coefficients over one running integer denominator (a power of q
times factorials for the series and the recurrence, a product of the
Leibniz ratios for the Rodrigues kernel) and builds one Fraction per output
coefficient at the end.  No route calls another; each keeps its own
derivation, so their agreement remains a check.

Special cases: weight 1/2 gives the Legendre family, weight 1 the Chebyshev
second-kind family, and the first-kind family (the weight -> 0 limit) is
provided directly through its classical coefficients.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .alphapoly import (
    AlphaPoly,
    ParameterError,
    RationalLike,
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


def _check_degree(n: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ParameterError(f"degree must be a nonnegative integer, got {n!r}")
    return n


@dataclass(frozen=True)
class GegenbauerSpec:
    """Parameter triple: degree n >= 0, weight lam > 0, order alpha in (0, 1]."""

    n: int
    lam: Fraction
    alpha: Union[Fraction, float]

    def __post_init__(self) -> None:
        _check_degree(self.n)
        lam = _as_fraction(self.lam)
        if lam <= 0:
            raise ParameterError(f"weight parameter must be positive, got {lam}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "alpha", _as_order(self.alpha))


@dataclass(frozen=True)
class UltrasphericalSpec:
    """Parameter triple for the shifted-weight family: beta > -1/2."""

    n: int
    beta: Fraction
    alpha: Union[Fraction, float]

    def __post_init__(self) -> None:
        _check_degree(self.n)
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


def from_series(spec: GegenbauerSpec) -> AlphaPoly:
    """Explicit series: coefficient of x^((n-2s)*a) is
    (-1)^s (lam)_(n-s) 2^(n-2s) / (s! (n-2s)!).

    Each term follows from the previous one by the ratio
    -k (k-1) / (4 (s+1) (lam+n-s-1)) with k = n - 2s, carried as an integer
    numerator over a running integer denominator."""
    n, p, q = spec.n, spec.lam.numerator, spec.lam.denominator
    num = 2 ** n  # term s = 0: 2^n (lam)_n / n! = 2^n prod(p + q i) / (q^n n!)
    for i in range(n):
        num *= p + q * i
    den = q ** n * math.factorial(n)
    coeffs = [Fraction(0)] * (n + 1)
    for s in range(n // 2 + 1):
        k = n - 2 * s
        coeffs[k] = Fraction(num, den)
        num *= -k * (k - 1) * q
        den *= 4 * (s + 1) * (p + q * (n - s - 1))
    return AlphaPoly(spec.alpha, tuple(coeffs))


def from_recurrence(spec: GegenbauerSpec) -> AlphaPoly:
    """Three-term recurrence (m+1) C_(m+1) = 2(m+lam) x^a C_m - (m+2lam-1) C_(m-1),
    seeded with C_(-1) = 0 and C_0 = 1.

    With lam = p/q it runs on P_m = q^m m! C_m, whose coefficients are
    integers: P_(m+1) = 2(qm+p) x^a P_m - qm(qm+2p-q) P_(m-1).  Only the
    entries of the member's parity are touched; C_n = P_n / (q^n n!)."""
    n, p, q = spec.n, spec.lam.numerator, spec.lam.denominator
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
    den = q ** n * math.factorial(n)
    return AlphaPoly(spec.alpha, tuple(Fraction(c, den) for c in cur))


def _rodrigues_kernel(alpha: Union[Fraction, float], n: int, c: Fraction) -> AlphaPoly:
    """Leibniz expansion of the n-fold conformable derivative of
    (1 - x^(2a))^(n+c), divided by (1 - x^(2a))^c and by the sign (-1)^n:

        sum_k f_k * a^n * (x^a + 1)^k * (x^a - 1)^(n-k),
        f_k = binom(n,k) G(n+c+1)^2 / (G(c+k+1) G(n+c-k+1)).

    The sum is taken by Horner's rule in (x^a + 1), carrying the power of
    (x^a - 1) along, on integer coefficient lists, so each product with
    (x^a +- 1) is a shift and an add; it costs O(n^2).  With c = r/t the
    factor f_n is (c+1)_n = prod_(i=1..n) (r + t i) / t^n, and each next one
    follows from the ratio f_(k-1)/f_k = k (r + t k) / step with
    step = (n-k+1) (t (n+1-k) + r).  The running total is kept over the
    factor's denominator, so it is multiplied by step whenever that
    denominator is.  The a^n from the n derivatives is the kernel's grade.
    """
    r, t = c.numerator, c.denominator
    num, den = 1, t ** n
    for i in range(1, n + 1):
        num *= r + t * i
    total: list[int] = []   # sum so far, integer coefficients over den
    minus_power = [1]       # (x^a - 1)^(n-k)
    for k in range(n, -1, -1):
        # total * (x^a + 1) + f_k * (x^a - 1)^(n-k)
        total = [lo + hi + num * m
                 for lo, hi, m in zip([0] + total, total + [0], minus_power)]
        if k:
            step = (n - k + 1) * (t * (n + 1 - k) + r)
            num *= k * (r + t * k)
            den *= step
            total = [v * step for v in total]
            minus_power = [lo - hi for lo, hi in zip([0] + minus_power, minus_power + [0])]
    return AlphaPoly(alpha, tuple(Fraction(v, den) for v in total), n)


def from_rodrigues(spec: GegenbauerSpec) -> AlphaPoly:
    """Rodrigues product form.  The prefactor

        G(2 lam + n) G(lam + 1/2) / ((-2a)^n G(2 lam) n! G(n + lam + 1/2))

    carries a^(-n), which cancels the kernel's a^n exactly; the (-1)^n of
    (-2a)^n cancels the kernel's extracted sign."""
    n, lam, alpha = spec.n, spec.lam, spec.alpha
    magnitude = (gamma_quotient(2 * lam + n, 2 * lam)
                 / gamma_quotient(n + lam + _HALF, lam + _HALF)
                 / (Fraction(2) ** n * math.factorial(n)))
    return _rodrigues_kernel(alpha, n, lam - _HALF).scale(magnitude, power=-n)


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
    return tuple(float(c) * prefactor for c in kernel.coeffs)


# ---------------------------------------------------------------------------
# special cases


def legendre(n: int, alpha: Union[Fraction, float]) -> AlphaPoly:
    """Weight 1/2: the conformable Legendre polynomial."""
    return from_series(GegenbauerSpec(_check_degree(n), _HALF, alpha))


def chebyshev_t(n: int, alpha: Union[Fraction, float]) -> AlphaPoly:
    """First-kind Chebyshev coefficients on the x^(k*a) basis.

    The weight -> 0 limit of the family is degenerate (every polynomial's
    limit is 0 for n >= 1), so the first kind is pinned by convention to the
    classical T_n coefficients."""
    _check_degree(n)
    alpha = _as_order(alpha)
    prev = AlphaPoly.constant(alpha, 1)
    if n == 0:
        return prev
    cur = AlphaPoly(alpha, (0, 1))
    for _ in range(n - 1):
        prev, cur = cur, cur.shift(1).scale(2) - prev
    return cur


def chebyshev_t_rodrigues(n: int, alpha: Union[Fraction, float]) -> AlphaPoly:
    """First-kind polynomials through the Rodrigues route at the weight -> 0
    boundary (exponent n - 1/2), prefactor 2^n n! / (a^n (2n)!).

    Exact; agrees with `chebyshev_t` identically, which the verification
    audit records."""
    _check_degree(n)
    magnitude = Fraction(2 ** n * math.factorial(n), math.factorial(2 * n))
    return _rodrigues_kernel(_as_order(alpha), n, -_HALF).scale(magnitude, power=-n)


def classical_oracle(n: int, lam: RationalLike) -> list[Fraction]:
    """Classical Gegenbauer coefficients (ascending powers of the plain
    variable) by the standard three-term recurrence on coefficient lists.

    Independent oracle for tests; the constructors never call it.
    """
    _check_degree(n)
    lam = _as_fraction(lam)
    if lam <= 0:
        raise ParameterError(f"weight parameter must be positive, got {lam}")
    prev = [Fraction(1)]
    if n == 0:
        return prev
    cur = [Fraction(0), 2 * lam]
    for m in range(2, n + 1):
        nxt = [Fraction(0)] * (m + 1)
        for j, coeff in enumerate(cur):
            nxt[j + 1] += 2 * (m - 1 + lam) / m * coeff
        for j, coeff in enumerate(prev):
            nxt[j] -= (m + 2 * lam - 2) / m * coeff
        prev, cur = cur, nxt
    return cur
