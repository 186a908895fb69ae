"""Exact arithmetic in the fractional power basis x^(k*a).

An AlphaPoly is a finite combination a^g * sum_k c_k * x^(k*a) with order
0 < a <= 1, rational coefficients c_k and an integer grade g.  Everything
is exact, so identity checks can assert exact zero instead of a small
float residual.  The order symbol a enters only through differentiation:
the conformable derivative acts on the basis as

    d_alpha : x^(k*a)  ->  a * k * x^((k-1)*a),

so each application multiplies every term by exactly one a, and the
result is again a single power of a times a rational polynomial.  Every
expression the package builds is homogeneous in a in this way, so one
grade per polynomial carries the order symbol: derivatives raise it,
products add grades, prefactors carrying a^(-n) lower it, and adding two
nonzero polynomials of different grades is rejected.

Fractional powers of negative arguments are evaluated under the
signed-power convention

    x^a := sign(x) * |x|^a,

which extends the basis to [-1, 1], preserves parity (even/odd index
support gives even/odd functions of x) and reduces to the ordinary power
at a = 1.

The zero polynomial is the empty coefficient tuple and has grade 0;
trailing zero coefficients are trimmed on construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import zip_longest
from typing import Iterable, Iterator, Union

__all__ = [
    "AlphaPoly",
    "DomainError",
    "GammaRatio",
    "ParameterError",
    "gamma_quotient",
    "pochhammer",
]

RationalLike = Union[int, str, Fraction]


class ParameterError(ValueError):
    """An argument lies outside an operation's domain of definition."""


class DomainError(ValueError):
    """A formula was evaluated at a pole or an undefined point."""


def _as_fraction(value: RationalLike) -> Fraction:
    # Floats are admitted because every float is exactly a dyadic rational;
    # the conversion itself loses nothing.
    if isinstance(value, Fraction):
        return value
    try:
        return Fraction(value)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"expected an exact rational, got {value!r}") from exc


def _as_order(value: Union[int, str, Fraction, float]) -> Union[Fraction, float]:
    """Validate a derivative order: a real in (0, 1], exact when rational."""
    if isinstance(value, (int, str)):
        value = Fraction(value)
    if not isinstance(value, (Fraction, float)):
        raise ParameterError(f"order must be a real number, got {value!r}")
    if not 0 < value <= 1:
        raise ParameterError(f"order must lie in (0, 1], got {value}")
    return value


def _as_coeff(value: Union[int, Fraction]) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise ParameterError(f"coefficient {value!r} is not exact")


# ---------------------------------------------------------------------------
# polynomials in x^(k*a)


@dataclass(frozen=True, eq=False)
class AlphaPoly:
    """Polynomial a^grade * sum_k coeffs[k] * x^(k*a), exact throughout.

    `alpha` is the order, in (0, 1], kept exact when given as a rational.
    Coefficients may be ints or Fractions; they are normalized to Fraction
    and trailing zeros are trimmed.  `grade` is the power of the order
    symbol a that multiplies the whole polynomial; the zero polynomial
    has grade 0 and adds to any grade.
    """

    alpha: Union[Fraction, float]
    coeffs: tuple[Fraction, ...] = ()
    grade: int = 0

    def __post_init__(self) -> None:
        a = _as_order(self.alpha)
        if not isinstance(self.grade, int):
            raise ParameterError(f"grade must be an integer, got {self.grade!r}")
        normalized = [_as_coeff(c) for c in self.coeffs]
        while normalized and not normalized[-1]:
            normalized.pop()
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "coeffs", tuple(normalized))
        object.__setattr__(self, "grade", self.grade if normalized else 0)

    # -- constructors

    @staticmethod
    def zero(alpha: Union[Fraction, float]) -> AlphaPoly:
        return AlphaPoly(alpha, ())

    @staticmethod
    def constant(alpha: Union[Fraction, float], value: Union[int, Fraction]) -> AlphaPoly:
        return AlphaPoly(alpha, (value,))

    @staticmethod
    def monomial(alpha: Union[Fraction, float], k: int,
                 coeff: Union[int, Fraction] = 1) -> AlphaPoly:
        if k < 0:
            raise ParameterError("basis index must be nonnegative")
        return AlphaPoly(alpha, (0,) * k + (coeff,))

    # -- structure

    @property
    def degree(self) -> int:
        """Highest basis index with a nonzero coefficient; -1 for zero."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlphaPoly):
            return NotImplemented
        return (self.alpha == other.alpha and self.grade == other.grade
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.alpha, self.grade, self.coeffs))

    def _require_same_order(self, other: AlphaPoly) -> None:
        if self.alpha != other.alpha:
            raise ParameterError(
                f"mismatched orders {self.alpha} and {other.alpha}")

    # -- arithmetic

    def __add__(self, other: AlphaPoly) -> AlphaPoly:
        if not isinstance(other, AlphaPoly):
            return NotImplemented
        self._require_same_order(other)
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        if self.grade != other.grade:
            raise ParameterError(
                f"cannot add terms of grades {self.grade} and {other.grade} "
                "in the order symbol")
        return AlphaPoly(self.alpha, tuple(
            a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)),
            self.grade)

    def __neg__(self) -> AlphaPoly:
        return AlphaPoly(self.alpha, tuple(-c for c in self.coeffs), self.grade)

    def __sub__(self, other: AlphaPoly) -> AlphaPoly:
        if not isinstance(other, AlphaPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union[AlphaPoly, int, Fraction]) -> AlphaPoly:
        if isinstance(other, AlphaPoly):
            self._require_same_order(other)
            if self.is_zero or other.is_zero:
                return AlphaPoly.zero(self.alpha)
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return AlphaPoly(self.alpha, tuple(out), self.grade + other.grade)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other: Union[int, Fraction]) -> AlphaPoly:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __truediv__(self, other: RationalLike) -> AlphaPoly:
        d = _as_fraction(other)
        return self.scale(Fraction(1) / d)

    def __pow__(self, exponent: int) -> AlphaPoly:
        if not isinstance(exponent, int) or exponent < 0:
            raise ParameterError("polynomial powers must be nonnegative integers")
        out = AlphaPoly.constant(self.alpha, 1)
        for _ in range(exponent):
            out = out * self
        return out

    def scale(self, factor: RationalLike, power: int = 0) -> AlphaPoly:
        """Multiply by factor * a**power (exact)."""
        r = _as_fraction(factor)
        return AlphaPoly(self.alpha, tuple(c * r for c in self.coeffs),
                         self.grade + power)

    def shift(self, k: int = 1) -> AlphaPoly:
        """Multiply by x^(k*a), shifting every basis index up by k."""
        if k < 0:
            raise ParameterError("basis shift must be nonnegative")
        if self.is_zero:
            return self
        return AlphaPoly(self.alpha, (0,) * k + self.coeffs, self.grade)

    # -- calculus and evaluation

    def d_alpha(self) -> AlphaPoly:
        """Conformable derivative: x^(k*a) -> a*k*x^((k-1)*a), exactly."""
        return AlphaPoly(self.alpha, tuple(k * c for k, c in enumerate(self.coeffs) if k),
                         self.grade + 1)

    @cached_property
    def _float_coeffs(self) -> tuple[float, ...]:
        scale = float(self.alpha) ** self.grade
        return tuple(float(c) * scale for c in self.coeffs)

    def evaluate(self, x: float) -> float:
        """Value at x under the signed-power convention."""
        if not self.coeffs:
            return 0.0
        xf = float(x)
        u = math.copysign(abs(xf) ** float(self.alpha), xf)
        acc = 0.0
        for c in reversed(self._float_coeffs):
            acc = acc * u + c
        return acc

    def __call__(self, x: float) -> float:
        return self.evaluate(x)

    def coefficient_sum(self) -> Fraction:
        """Exact value at x = 1 (all basis monomials are 1 there)."""
        return sum(self.rational_coeffs(), Fraction(0))

    def rational_coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients as plain rationals; rejects order-dependent ones."""
        if self.grade:
            raise ParameterError(
                f"polynomial {self} carries a power of the order symbol")
        return self.coeffs

    # -- display

    def __str__(self) -> str:
        g = self.grade
        power = "a" if g == 1 else f"a^{g}"
        out: list[str] = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            basis = "" if k == 0 else ("x^a" if k == 1 else f"x^{k}a")
            if g:
                # order-dependent coefficients print whole, in parentheses
                negative = False
                if c == 1:
                    scalar = power
                elif c == -1:
                    scalar = f"-{power}"
                else:
                    scalar = f"{c}*{power}"
                body = f"({scalar}) {basis}".rstrip()
            else:
                negative = c < 0
                mag = abs(c)
                if not basis:
                    body = f"{mag}"
                elif mag == 1:
                    body = basis
                else:
                    body = f"{mag} {basis}"
            if not out:
                out.append(("-" if negative else "") + body)
            else:
                out.append(("- " if negative else "+ ") + body)
        return " ".join(out) if out else "0"

    def __repr__(self) -> str:
        return f"AlphaPoly(alpha={self.alpha}, {self})"


# ---------------------------------------------------------------------------
# exact gamma-function helpers


def pochhammer(base: RationalLike, m: int) -> Fraction:
    """Rising factorial (base)_m = base*(base+1)*...*(base+m-1), exactly."""
    if not isinstance(m, int) or m < 0:
        raise ParameterError(f"rising factorial needs a nonnegative integer, got {m!r}")
    b = _as_fraction(base)
    out = Fraction(1)
    for i in range(m):
        out *= b + i
    return out


def gamma_quotient(num: RationalLike, den: RationalLike) -> Fraction:
    """Gamma(num)/Gamma(den) for arguments an integer apart, reduced exactly.

    Reduction is through rising factorials, which also gives the correct
    analytic-continuation value when both arguments sit at poles.  A pole
    in the numerator alone has no finite value and raises DomainError.
    """
    a = _as_fraction(num)
    b = _as_fraction(den)
    offset = a - b
    if offset.denominator != 1:
        raise ParameterError(
            f"gamma quotient needs integer-offset arguments, got {a} and {b}")
    k = offset.numerator
    if k >= 0:
        return pochhammer(b, k)
    p = pochhammer(a, -k)
    if not p:
        raise DomainError(f"gamma pole at argument {a}")
    return 1 / p


@dataclass(frozen=True)
class GammaRatio:
    """Exact ratio prod Gamma(num_i) / prod Gamma(den_j).

    Arguments are bucketed by fractional part; within a bucket numerator and
    denominator counts must balance (every numerator argument is an integer
    away from a denominator argument), and each pair reduces to a rising
    factorial.  Substituting rational arguments therefore evaluates exactly.
    """

    num: tuple[Fraction, ...]
    den: tuple[Fraction, ...]

    @staticmethod
    def of(num: Iterable[RationalLike], den: Iterable[RationalLike]) -> GammaRatio:
        return GammaRatio(
            tuple(sorted(_as_fraction(v) for v in num)),
            tuple(sorted(_as_fraction(v) for v in den)),
        )

    def _buckets(self, args: Iterable[Fraction]) -> dict[Fraction, list[Fraction]]:
        out: dict[Fraction, list[Fraction]] = {}
        for v in args:
            out.setdefault(v - math.floor(v), []).append(v)
        return out

    def to_fraction(self) -> Fraction:
        tops = self._buckets(self.num)
        bottoms = self._buckets(self.den)
        if set(tops) != set(bottoms) or any(
                len(tops[k]) != len(bottoms[k]) for k in tops):
            raise ParameterError(
                "gamma arguments do not pair up an integer apart")
        out = Fraction(1)
        for key, top in tops.items():
            for a, b in zip(sorted(top), sorted(bottoms[key])):
                out *= gamma_quotient(a, b)
        return out

    def __iter__(self) -> Iterator[tuple[Fraction, ...]]:
        return iter((self.num, self.den))

