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
made: `values(xs, a)` and `evaluate(x, a)`.  Fractional powers of negative
arguments are evaluated under the signed-power convention

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
- otherwise, the exact value at each float u, correctly rounded
  (`_exact_values`): with u = m / 2^e, integer Horner on the numerators
  and one int / int.  It takes any finite u and costs O(n^2 e) bit
  operations per point.

Horner raises AccuracyError when a coefficient it rounds lies past the
float range, and the exact evaluator when a value does; `_float_values`
raises it for any value that comes out not finite.  A point whose u is not
finite is refused before either runs, with ParameterError.

`_float_values` is the one evaluation loop: it checks the order, builds
u = x^a and applies the grade.  `AlphaPoly.values` feeds it one of the two
evaluators above.  `gegenbauer._member_values` feeds it a Gegenbauer
member's own: Horner below the same bound, otherwise a Clenshaw sum over
the closed-form Chebyshev coefficients of DLMF 18.5.11, each rounded once,
with its error bound (see `gegenbauer._member_form`).  `eval`,
`plot-data` and the special-cases suite evaluate members that way.

Horner and Clenshaw each have one loop body, a function of one argument u
that is a float or a float64 array, and `_by_point_or_column` runs it:
point by point on a list shorter than `_COLUMN_POINTS`, and once on the
whole list as a numpy column, imported there, on a longer one.  The scalar
seeds broadcast against the array, and each step is the same IEEE
operation on a float and, elementwise, on an array, none fused into a
multiply-add, so both paths give the same bits.  u = x^a stays per point,
through libm's pow (numpy 2.4's power differed from it at 115 of 2001
grid points at a = 3/4), and the column runs under errstate(all="ignore"),
so an overflow reaches the finiteness check as it does point by point,
with no warning.  The exact evaluator has no column form.

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
import numbers
from fractions import Fraction
from functools import cached_property
from itertools import zip_longest
from typing import Callable, Iterable, Optional, Union

__all__ = [
    "AccuracyError",
    "AlphaPoly",
    "DomainError",
    "ParameterError",
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
    # is a caller's mistake, so it is refused.  Any other real number that
    # Fraction does not take, such as numpy.float32, is taken as its float.
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ParameterError(f"expected an exact rational, got {value!r}")
    if isinstance(value, numbers.Real) and not isinstance(value, (float, numbers.Rational)):
        value = float(value)
    try:
        return Fraction(value)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ParameterError(f"expected an exact rational, got {value!r}") from exc


def _as_order(value: RationalLike) -> Fraction:
    """Validate a derivative order: an exact rational in (0, 1] whose float
    is not 0.0, since every float made from an order divides by it or
    raises to its power."""
    try:
        a = _as_fraction(value)
    except ParameterError:
        raise ParameterError(f"order must be a real number, got {value!r}") from None
    if not 0 < a <= 1:
        raise ParameterError(f"order must lie in (0, 1], got {a}")
    if not float(a):
        raise ParameterError("order rounds to 0.0 as a float, outside (0, 1]")
    return a


def _as_int(value: int, what: str) -> int:
    """Validate an integer argument (a grade, power or degree bound): an int, not a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParameterError(f"{what} must be an integer, got {value!r}")
    return value


def _as_count(value: int, what: str) -> int:
    """Validate a count (a degree, length or index): a nonnegative int, not a bool."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ParameterError(f"{what} must be a nonnegative integer, got {value!r}")
    return value


def _as_tolerance(value: float, what: str = "") -> float:
    """Validate a relative tolerance: a real number, not a bool, strictly
    between 0 and 1.  The error names `what`; a caller that names the value
    itself passes none."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParameterError(f"{what} must be a real number, got {value!r}".lstrip())
    # the chained comparison also rejects nan and inf
    if not 0 < value < 1:
        raise ParameterError(f"{what} must lie strictly between 0 and 1, got {value!r}".lstrip())
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


def _fits_horner(n: int, l1: int, den: int, total: int) -> bool:
    """Whether float Horner's bound holds (see the module docstring) for a
    polynomial of degree n with sum |c_k| = l1 / den and p(1) = total / den:
    the bound multiplied out over den * (2^53 - m) * 10^12, m = 2n + 1."""
    m = 2 * n + 1
    return m * l1 * 10 ** 12 <= ((1 << 53) - m) * max(den, abs(total))


# A list of at least this many points is evaluated column-wise with numpy,
# by the loop body that runs point by point on a shorter one, so the values
# are the same bits.  At 2001 points and order 1/2, C_64 at weight 1
# (Clenshaw) took 0.76 ms against 4.6 ms point by point, and C_8 (Horner)
# 0.43 against 1.4 ms; at 256 points, 0.17 against 0.58 ms.  Below 32 to 64
# points the columns lose (2-core x86-64, Python 3.11, numpy 2.4).  Importing
# numpy costs about 150 ms in a fresh process, so the threshold sits above
# the 201 samples of the default `plot-data` and the 200 points of the
# special-cases suite, which load no numpy.
_COLUMN_POINTS = 256


def _by_point_or_column(step: Callable, us: list[float]) -> list[float]:
    """step(u) at each point of us: point by point below `_COLUMN_POINTS`
    points, otherwise once on the float64 column of us, where errstate
    keeps an overflow silent for `_float_values` to report."""
    if len(us) < _COLUMN_POINTS:
        return list(map(step, us))
    import numpy as np
    with np.errstate(all="ignore"):
        return step(np.array(us)).tolist()


def _horner_values(coeffs: tuple[float, ...], us: list[float]) -> list[float]:
    """Float Horner in u at each point of us, coefficients highest first."""
    def horner(u):
        acc = 0.0
        for c in coeffs:
            acc = acc * u + c
        return acc

    return _by_point_or_column(horner, us)


def _exact_values(nums: tuple[int, ...], den: int, us: list[float]) -> list[float]:
    """sum_k (nums[k] / den) u^k at each float u, exactly, correctly rounded.

    With u = m / 2^e, integer Horner gives
    acc = sum_k nums[k] m^k 2^(e (n-k)), and acc / (den 2^(e n)) is one
    int / int, which Python rounds correctly.  A point costs O(n^2 e) bit
    operations.  Every u is finite: `_float_values` checks."""
    n = len(nums) - 1
    out = []
    for u in us:
        m, d = u.as_integer_ratio()
        e = d.bit_length() - 1
        acc = 0
        for j, c in enumerate(reversed(nums)):
            acc = acc * m + (c << (e * j))
        try:
            out.append(acc / (den << (e * n)))
        except OverflowError:
            raise AccuracyError(f"the value of this degree-{n} polynomial at x^a = {u!r} "
                                "lies past the float range") from None
    return out


def _float_values(xs: Iterable[float], a: float, degree: int, grade: int,
                  evaluate: Callable[[list[float]], list[float]]) -> list[float]:
    """Values at the points xs and order a, under the signed-power
    convention, of a polynomial of the given degree (-1 for zero) and grade:
    `evaluate` maps the list of u = x^a to the values, which are multiplied
    by a**grade when the grade is nonzero.  The order goes through
    `_as_order`, with its messages, and is used as its float, which for a
    float order in (0, 1] is that float itself.  The order is checked once
    and u is built once per point before `evaluate` is called; a u that is
    not finite raises ParameterError, whichever evaluator would run.  An
    OverflowError from `evaluate`, which rounds the coefficients it needs
    on first use, or from a**grade becomes AccuracyError, and so does a
    value that is not finite, as a float intermediate past the range gives."""
    a = float(_as_order(a))
    # at order 1, x^a is x itself, -0.0 included
    us = (list(map(float, xs)) if a == 1.0
          else [math.copysign(abs(x) ** a, x) for x in map(float, xs)])
    if not all(map(math.isfinite, us)):
        u = next(u for u in us if not math.isfinite(u))
        raise ParameterError(f"x^a = {u!r} is not a finite number")
    if degree < 0:
        return [0.0] * len(us)
    try:
        out = evaluate(us)
        if grade:
            factor = a ** grade
            out = [v * factor for v in out]
    except OverflowError:
        raise AccuracyError(f"a float coefficient of this degree-{degree} "
                            "polynomial lies past the float range") from None
    if not all(map(math.isfinite, out)):
        raise AccuracyError(f"a float value of this degree-{degree} polynomial is not finite")
    return out


# ---------------------------------------------------------------------------
# immutable values


class _Record:
    """Base of the package's immutable values.  Setting or deleting an
    attribute raises AttributeError, so a subclass stores its fields once,
    through `__dict__`.  The parameter and result records name their fields,
    in order, in `_fields`: such a record equals only a record of its own
    class whose fields are equal, hashes by its fields and prints as
    `Name(field=value, ...)`, leaving out the fields in `_unprinted`.
    AlphaPoly takes only its immutability from here.

    This is what a frozen dataclass gives.  `dataclasses` is not used
    because it imports `inspect`, and the two took about a third of the
    time a CLI process spent importing the package."""

    __slots__ = ()
    _fields: tuple[str, ...]
    _unprinted: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields
                           if name not in self._unprinted)
        return f"{type(self).__name__}({fields})"


# ---------------------------------------------------------------------------
# polynomials in x^(k*a)


class AlphaPoly(_Record):
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
        _as_int(grade, "grade")
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

    # -- constructors

    @staticmethod
    def zero() -> AlphaPoly:
        return AlphaPoly(())

    @staticmethod
    def constant(value: Union[int, Fraction]) -> AlphaPoly:
        return AlphaPoly((value,))

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

    def __pow__(self, exponent: int) -> AlphaPoly:
        out = AlphaPoly.constant(1)
        for _ in range(_as_count(exponent, "polynomial power")):
            out = out * self
        return out

    def scale(self, factor: RationalLike, power: int = 0) -> AlphaPoly:
        """Multiply by factor * a**power (exact)."""
        r = _as_fraction(factor)
        _as_int(power, "power")
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
    def _horner(self) -> Optional[tuple[float, ...]]:
        """The float coefficients, highest index first, when float Horner's
        bound holds (`_fits_horner`), otherwise None.  Each v / den is an int
        quotient, so it is the coefficient correctly rounded."""
        nums, den = self.nums, self.den
        if not _fits_horner(len(nums) - 1, sum(map(abs, nums)), den, sum(nums)):
            return None
        return tuple(v / den for v in reversed(nums))

    def _values_at(self, us: list[float]) -> list[float]:
        """Float Horner at the points us where its bound holds, otherwise
        `_exact_values`."""
        horner = self._horner
        if horner is None:
            return _exact_values(self.nums, self.den, us)
        return _horner_values(horner, us)

    def values(self, xs: Iterable[float], a: float) -> list[float]:
        """Values at the points xs and order a under the signed-power
        convention, by the evaluator this polynomial chose (see the module
        docstring), times a**grade when the grade is nonzero; see
        `_float_values`."""
        return _float_values(xs, a, self.degree, self.grade, self._values_at)

    def evaluate(self, x: float, a: float) -> float:
        """Value at one point x and order a; see `values`."""
        return self.values((x,), a)[0]

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
    """Sample points for `plot-data` and the special-cases suite:
    lo + i * step for i < samples - 1, then exactly 1.0, which are
    linspace's floats.  The error names the CLI's flag."""
    if samples < 2:
        raise ParameterError(f"--samples must be >= 2, got {samples}")
    step = (1.0 - lo) / (samples - 1)
    return [lo + i * step for i in range(samples - 1)] + [1.0]


# ---------------------------------------------------------------------------
# exact rising factorial


def _rising(start: int, step: int, m: int) -> int:
    """prod_(i<m) (start + step i) for integers with step > 0: the numerator
    of every exact constant, since (p/q)_m = _rising(p, q, m) / q^m."""
    return math.prod(range(start, start + step * m, step))


def pochhammer(base: RationalLike, m: int) -> Fraction:
    """Rising factorial (base)_m = base*(base+1)*...*(base+m-1), exactly."""
    _as_count(m, "rising factorial length")
    b = _as_fraction(base)
    return Fraction(_rising(b.numerator, b.denominator, m), b.denominator ** m)

