"""Exact arithmetic in the fractional power basis x^(k*a).

An AlphaPoly is a finite combination a^g * sum_k c_k * x^(k*a) with
rational coefficients c_k and an integer grade g.  Everything is exact, so
identity checks can assert exact zero instead of a small float residual.
The order a is not part of the polynomial: the exact layer never reads its
value.  The order symbol a enters only through differentiation: the
conformable derivative acts on the basis as

    d_alpha : x^(k*a)  ->  a * k * x^((k-1)*a),

so each application multiplies every term by exactly one a, and the
result is again a single power of a times a rational polynomial.  Every
expression the package builds is homogeneous in a in this way, so one
grade per polynomial carries the order symbol: derivatives raise it,
products add grades, prefactors carrying a^(-n) lower it, and adding two
nonzero polynomials of different grades is rejected.

A value of the order, a float in (0, 1], is supplied only where a float is
made: `values(xs, a)`, `evaluate(x, a)` and `p(x, a)`.  Fractional powers
of negative arguments are evaluated under the signed-power convention

    x^a := sign(x) * |x|^a,

which extends the basis to [-1, 1], preserves parity (even/odd index
support gives even/odd functions of x) and reduces to the ordinary power
at a = 1.

Float evaluation is a polynomial in u = x^a, and each polynomial picks one
of two evaluators once, from its exact coefficients c_k = nums[k] / den
(eps = 2^-53 is the unit roundoff, n the degree, p(1) = sum c_k):

- float Horner in u, when its a-priori bound for |u| <= 1,
  gamma_(2n+1) * sum |c_k| with gamma_m = m eps / (1 - m eps) (Higham,
  Accuracy and Stability of Numerical Algorithms, eq. 5.3), is at most
  1e-12 * max(1, |p(1)|).  The test is exact integer arithmetic.  Horner
  takes any finite x; past |u| = 1 its bound grows by |u|^n and is not
  checked.  The Gegenbauer family keeps Horner up to degree 8 at weight
  1/2, 9 at weight 1, 11 at weight 3 and 23 at weight 343/11.
- otherwise, the sum sum_j b_j T_j(u) over Chebyshev polynomials.  The
  b_j are converted exactly and rounded once each.  Each parity part is a
  Clenshaw sum of length floor(n/2) + 1 in w = 2u^2 - 1, since
  T_2k(u) = T_k(w) and the T_(2k+1)(u) follow the same three-term
  recurrence in w; a Gegenbauer member has one part.  See
  `_chebyshev_form` for the bound, (5.5 m^2 + 7.5 m + 6) eps * sum |b_j|
  with m = floor(n/2), about 1.4 n^2 eps * sum |b_j|.  Every Gegenbauer
  weight lam > 0 gives b_j >= 0 (DLMF 18.5), so sum |b_j| = C_n(1), the
  curve's own scale.  This evaluator takes |u| <= 1 only, and raises
  ParameterError past it; a bound above 1e-10 * max(1, |p(1)|), which
  every member of weight >= 1/2 reaches from degree 808 on, raises
  AccuracyError.

Either evaluator raises AccuracyError when a coefficient it rounds, or the
bound or scale it sums, lies past the float range.

The rational coefficients are stored as integer numerators over one
common positive denominator, so arithmetic runs on Python integers: a sum
works over the lcm of the two denominators, a product is an integer
convolution over their product, and shift and d_alpha keep the
denominator.  `AlphaPoly._of(nums, den, grade)` is the one place a result
is put in canonical form: it trims trailing zero numerators and divides
out gcd(den, *nums), so every polynomial has den > 0, gcd 1 and a nonzero
last numerator, and the zero polynomial is nums () over den 1 with grade
0.  Equal polynomials therefore have equal (grade, den, nums).  The
Fraction coefficients are a view, built on demand.

The public constructor validates every coefficient.  The results of
arithmetic, and of the constructors in `gegenbauer`, come from `_of`
instead, which skips validation: everything that reaches it is already
valid, the numerators integers and the denominator a positive integer.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import zip_longest
from typing import Iterable, Optional, Union

__all__ = [
    "AccuracyError",
    "AlphaPoly",
    "DomainError",
    "ParameterError",
    "gamma_quotient",
    "pochhammer",
]

RationalLike = Union[int, float, str, Fraction]


class ParameterError(ValueError):
    """An argument lies outside an operation's domain of definition."""


class DomainError(ValueError):
    """A formula was evaluated at a pole or an undefined point."""


class AccuracyError(RuntimeError):
    """A float result's error bound or estimate exceeded its tolerance.

    Carries the best estimate, where there is one, so callers can still
    inspect it."""

    def __init__(self, message: str, best: object = None):
        super().__init__(message)
        self.best = best


def _as_fraction(value: RationalLike) -> Fraction:
    # Floats are admitted because every finite one is exactly a dyadic
    # rational; the conversion loses nothing.  nan, inf and "1/0" have no
    # rational value.  A bool is an int to Python, but True standing for 1
    # is a caller's mistake, so it is refused.
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ParameterError(f"expected an exact rational, got {value!r}")
    try:
        return Fraction(value)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ParameterError(f"expected an exact rational, got {value!r}") from exc


def _as_order(value: RationalLike) -> Fraction:
    """Validate a derivative order: an exact rational in (0, 1]."""
    try:
        a = _as_fraction(value)
    except ParameterError:
        raise ParameterError(f"order must be a real number, got {value!r}") from None
    if not 0 < a <= 1:
        raise ParameterError(f"order must lie in (0, 1], got {a}")
    return a


def _as_count(value: int, what: str) -> int:
    """Validate a count (a degree, length or index): a nonnegative int, not a bool."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ParameterError(f"{what} must be a nonnegative integer, got {value!r}")
    return value


def _as_cases(values: Iterable, what: str) -> tuple:
    """Validate the cases of a sweep: a check over none of them proves nothing."""
    values = tuple(values)
    if not values:
        raise ParameterError(f"{what} must not be empty")
    return values


def _as_coeff(value: Union[int, Fraction]) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise ParameterError(f"coefficient {value!r} is not exact")


def _chebyshev_numerators(nums: tuple[int, ...]) -> list[int]:
    """The integers B_j = den 2^n b_j of `_chebyshev_form`, from the
    numerators of a polynomial of degree n = len(nums) - 1."""
    n = len(nums) - 1
    big = [0] * (n + 1)
    for k, c in enumerate(nums):
        if not c:
            continue
        w = c << (n + 1 - k)  # c 2^(n+1-k) C(k, i) at step i
        for i in range((k + 1) // 2):
            big[k - 2 * i] += w
            w = w * (k - i) // (i + 1)
        if not k % 2:
            big[0] += w >> 1
    return big


def _chebyshev_form(nums: tuple[int, ...], den: int) -> tuple[tuple, float, float]:
    """(parts, bound, scale) for the Chebyshev evaluator of
    sum_k (nums[k] / den) u^k, a nonzero polynomial of degree n.

    u^k = 2^(1-k) sum_i C(k, i) T_(k-2i), with the T_0 term halved, so
    over the shared denominator den * 2^n every Chebyshev coefficient
    b_j is an integer B_j, found by `_chebyshev_numerators` in one pass
    over the nonzero numerators and then rounded once.  Each binomial is
    carried exactly from the previous one, C(k, i+1) = C(k, i) (k - i) /
    (i + 1), an exact integer division of the running weight, so the
    pass makes no binomial call.  `parts` splits them by parity, each
    part (odd, coeffs) holding c_k = b_(2k+odd) highest k first, as the
    Clenshaw sum takes them; a Gegenbauer member has one part.
    `scale` is max(1, |p(1)|).

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
    - adding the two parity parts: 1."""
    n = len(nums) - 1
    big = _chebyshev_numerators(nums)
    shared = den << n
    parts = []
    for odd in (0, 1):
        part = big[odd::2]
        while part and not part[-1]:
            part.pop()
        if part:
            parts.append((odd, tuple(v / shared for v in reversed(part))))
    m = n // 2
    bound = (5.5 * m * m + 7.5 * m + 6) * 2.0 ** -53 * (sum(map(abs, big)) / shared)
    return tuple(parts), bound, max(1.0, abs(sum(nums)) / den)


# ---------------------------------------------------------------------------
# polynomials in x^(k*a)


class AlphaPoly:
    """Polynomial a^grade * sum_k (nums[k] / den) * x^(k*a), exact throughout.

    The coefficients are stored as the tuple of integer numerators `nums`
    over one positive integer denominator `den`, in lowest terms, with no
    trailing zero; `coeffs` is the tuple of Fractions they stand for, built
    on first use.  The public constructor takes coefficients as ints or
    Fractions.  `grade` is the power of the order symbol a that multiplies
    the whole polynomial.  The zero polynomial is nums () over den 1, has
    grade 0 and adds to any grade.  The order itself is no field: it is an
    argument of evaluation.  Instances are immutable.
    """

    nums: tuple[int, ...]
    den: int
    grade: int

    def __init__(self, coeffs: Iterable[Union[int, Fraction]] = (), grade: int = 0) -> None:
        if not isinstance(grade, int) or isinstance(grade, bool):
            raise ParameterError(f"grade must be an integer, got {grade!r}")
        fracs = [_as_coeff(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in fracs))
        self._store([c.numerator * (den // c.denominator) for c in fracs], den, grade)

    @classmethod
    def _of(cls, nums: list[int], den: int, grade: int) -> AlphaPoly:
        """Build from parts that are already valid: a list of integer
        numerators, which is trimmed in place, and a positive integer
        denominator.  Skips validation."""
        poly = object.__new__(cls)
        poly._store(nums, den, grade)
        return poly

    def _store(self, nums: list[int], den: int, grade: int) -> None:
        """Trim trailing zeros and reduce nums/den to lowest terms with one gcd."""
        while nums and not nums[-1]:
            nums.pop()
        if not nums:
            den, grade = 1, 0
        else:
            g = math.gcd(den, *nums)
            if g != 1:
                nums = [v // g for v in nums]
                den //= g
        self.__dict__.update(nums=tuple(nums), den=den, grade=grade)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"AlphaPoly is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"AlphaPoly is immutable; cannot delete {name!r}")

    # -- constructors

    @staticmethod
    def zero() -> AlphaPoly:
        return AlphaPoly(())

    @staticmethod
    def constant(value: Union[int, Fraction]) -> AlphaPoly:
        return AlphaPoly((value,))

    @staticmethod
    def monomial(k: int, coeff: Union[int, Fraction] = 1) -> AlphaPoly:
        return AlphaPoly((0,) * _as_count(k, "basis index") + (coeff,))

    # -- structure

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, lowest index first."""
        return tuple(Fraction(v, self.den) for v in self.nums)

    @property
    def degree(self) -> int:
        """Highest basis index with a nonzero coefficient; -1 for zero."""
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlphaPoly):
            return NotImplemented
        return (self.grade == other.grade and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self) -> int:
        return hash((self.grade, self.den, self.nums))

    # -- arithmetic

    def __add__(self, other: AlphaPoly) -> AlphaPoly:
        if not isinstance(other, AlphaPoly):
            return NotImplemented
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        if self.grade != other.grade:
            raise ParameterError(
                f"cannot add terms of grades {self.grade} and {other.grade} "
                "in the order symbol")
        den = math.lcm(self.den, other.den)
        f, g = den // self.den, den // other.den
        return AlphaPoly._of([
            a * f + b * g for a, b in zip_longest(self.nums, other.nums, fillvalue=0)],
            den, self.grade)

    def __neg__(self) -> AlphaPoly:
        return AlphaPoly._of([-v for v in self.nums], self.den, self.grade)

    def __sub__(self, other: AlphaPoly) -> AlphaPoly:
        if not isinstance(other, AlphaPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union[AlphaPoly, int, Fraction]) -> AlphaPoly:
        if isinstance(other, AlphaPoly):
            if self.is_zero or other.is_zero:
                return AlphaPoly._of([], 1, 0)
            out = [0] * (len(self.nums) + len(other.nums) - 1)
            for i, a in enumerate(self.nums):
                if not a:
                    continue
                for j, b in enumerate(other.nums, i):
                    out[j] += a * b
            return AlphaPoly._of(out, self.den * other.den, self.grade + other.grade)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other: Union[int, Fraction]) -> AlphaPoly:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __truediv__(self, other: RationalLike) -> AlphaPoly:
        d = _as_fraction(other)
        if not d:
            raise ParameterError("division of a polynomial by zero")
        return self.scale(1 / d)

    def __pow__(self, exponent: int) -> AlphaPoly:
        out = AlphaPoly.constant(1)
        for _ in range(_as_count(exponent, "polynomial power")):
            out = out * self
        return out

    def scale(self, factor: RationalLike, power: int = 0) -> AlphaPoly:
        """Multiply by factor * a**power (exact)."""
        r = _as_fraction(factor)
        if not isinstance(power, int) or isinstance(power, bool):
            raise ParameterError(f"power must be an integer, got {power!r}")
        return self._times(r.numerator, r.denominator, power)

    def _times(self, num: int, den: int = 1, power: int = 0) -> AlphaPoly:
        """`scale` by num / den * a**power for integers num and den > 0, unchecked."""
        return AlphaPoly._of([v * num for v in self.nums], self.den * den, self.grade + power)

    def shift(self, k: int = 1) -> AlphaPoly:
        """Multiply by x^(k*a), shifting every basis index up by k."""
        _as_count(k, "basis shift")
        if self.is_zero:
            return self
        return AlphaPoly._of([0] * k + list(self.nums), self.den, self.grade)

    # -- calculus and evaluation

    def d_alpha(self) -> AlphaPoly:
        """Conformable derivative: x^(k*a) -> a*k*x^((k-1)*a), exactly."""
        return AlphaPoly._of([k * v for k, v in enumerate(self.nums) if k],
                             self.den, self.grade + 1)

    @cached_property
    def _horner(self) -> tuple[float, ...]:
        """The float coefficients, highest index first.  Each v / den is an
        int quotient, so it is the coefficient correctly rounded."""
        den = self.den
        return tuple(v / den for v in reversed(self.nums))

    @cached_property
    def _chebyshev(self) -> Optional[tuple[tuple, float, float]]:
        """None when float Horner's bound holds (see the module docstring),
        otherwise `_chebyshev_form` of the coefficients.  The test is that
        bound multiplied out over den * (2^53 - m) * 10^12, m = 2n + 1."""
        nums, den = self.nums, self.den
        m = 2 * len(nums) - 1
        if m * sum(map(abs, nums)) * 10 ** 12 <= ((1 << 53) - m) * max(den, abs(sum(nums))):
            return None
        return _chebyshev_form(nums, den)

    def values(self, xs: Iterable[float], a: float) -> list[float]:
        """Values at the points xs and order a under the signed-power
        convention, by the evaluator this polynomial chose (see the module
        docstring), times a**grade when the grade is nonzero.  The order is
        checked once and u = x^a is built once per point."""
        if type(a) is not float:  # a float order, as the CLI passes, is kept
            if isinstance(a, bool):
                raise ParameterError(f"order must be a real number, got {a!r}")
            try:
                a = float(a)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ParameterError(f"order must be a real number, got {a!r}") from exc
        # the chained comparison also rejects nan
        if not 0 < a <= 1:
            raise ParameterError(f"order must lie in (0, 1], got {a!r}")
        if not self.nums:
            return [0.0 for _ in xs]
        # at order 1, x^a is x itself, -0.0 included
        us = (list(map(float, xs)) if a == 1.0
              else [math.copysign(abs(x) ** a, x) for x in map(float, xs)])
        try:
            chebyshev = self._chebyshev
            horner = self._horner if chebyshev is None else ()
        except OverflowError:
            raise AccuracyError(f"a float coefficient of this degree-{self.degree} "
                                "polynomial lies past the float range") from None
        if chebyshev is None:
            out = []
            for u in us:
                acc = 0.0
                for c in horner:
                    acc = acc * u + c
                out.append(acc)
        else:
            parts, bound, scale = chebyshev
            if bound > 1e-10 * scale:
                raise AccuracyError(
                    f"Chebyshev evaluation bound {bound:.3g} exceeds 1e-10 of the "
                    f"scale {scale:.6g} at degree {self.degree}")
            for u in us:
                if not -1.0 <= u <= 1.0:
                    raise ParameterError(
                        f"x^a = {u!r} lies outside [-1, 1], where the Chebyshev "
                        "evaluator's bound holds")
            out = None
            for odd, coeffs in parts:
                sums = []
                for u in us:
                    w2 = 4.0 * u * u - 2.0
                    y1 = y2 = 0.0
                    for c in coeffs:
                        y1, y2 = c + w2 * y1 - y2, y1
                    sums.append(u * (y1 - y2) if odd else y1 - 0.5 * w2 * y2)
                out = sums if out is None else [v + w for v, w in zip(out, sums)]
        if self.grade:
            factor = a ** self.grade
            out = [v * factor for v in out]
        return out

    def evaluate(self, x: float, a: float) -> float:
        """Value at one point x and order a; see `values`."""
        return self.values((x,), a)[0]

    def __call__(self, x: float, a: float) -> float:
        return self.evaluate(x, a)

    def coefficient_sum(self) -> Fraction:
        """Exact value at x = 1 (all basis monomials are 1 there)."""
        self._require_rational()
        return Fraction(sum(self.nums), self.den)

    def rational_coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients as plain rationals; rejects order-dependent ones."""
        self._require_rational()
        return self.coeffs

    def _require_rational(self) -> None:
        if self.grade:
            raise ParameterError(
                f"polynomial {self} carries a power of the order symbol")

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
        return f"AlphaPoly({self})"


def _sample_grid(lo: float, samples: int) -> list[float]:
    """Points for `AlphaPoly.values`: lo + i * step for i < samples - 1, then
    exactly 1.0, which are linspace's floats."""
    if samples < 2:
        raise ParameterError(f"--samples must be >= 2, got {samples}")
    step = (1.0 - lo) / (samples - 1)
    return [lo + i * step for i in range(samples - 1)] + [1.0]


# ---------------------------------------------------------------------------
# exact gamma-function helpers


def pochhammer(base: RationalLike, m: int) -> Fraction:
    """Rising factorial (base)_m = base*(base+1)*...*(base+m-1), exactly."""
    _as_count(m, "rising factorial length")
    b = _as_fraction(base)
    p, q = b.numerator, b.denominator
    num = 1  # prod (b + i) = prod (p + q i) / q^m
    for i in range(m):
        num *= p + q * i
    return Fraction(num, q ** m)


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
