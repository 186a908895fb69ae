"""Output checker, run outside the timed region.

Every request gets one verdict: None when its output is right, otherwise a
failure kind:

- "refused": exit code 2 or 3, or a documented exception from the API
  (AccuracyError, ParameterError, DomainError); the program said it could
  not answer;
- "inaccurate": a curve value off the exact value by more than
  CURVE_TOL on the curve's scale, but by no more than float Horner's
  rounding-error bound at that point (the known defect at high degree:
  the monomial form cancels, and its rounding errors are real);
- "wrong": anything else (an escaped exception, another exit code, a
  malformed report or CSV, a curve value past the rounding bound, such as
  NaN or a wrong sign where rounding cannot flip it, a failed status, a
  wrong quadrature value).

All three count as failed requests.  Only "wrong" makes the run incorrect:
the other two are the program's documented refusals and the known
evaluation defect, which the failure count tracks.

The curve reference is exact: each CSV value is compared with the
polynomial evaluated in rational arithmetic at the same
u = copysign(|x|**a, x) the program uses (libm pow), with coefficients from
the explicit series computed here, independently of the program.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from workloads import ASSERTED_PER_FULL_RUN, Outcome

CURVE_TOL = 1e-10
UNIT_ROUNDOFF = 2.0 ** -53
AUDIT_TOL = 1e-6          # quadrature against the derived value, as the program asserts
ORTH_TOL = 1e-8           # normalized off-diagonal, as the program asserts
AUDIT_LAMBDAS = (Fraction(1), Fraction(3))
AUDIT_ALPHAS = (Fraction(1, 4), Fraction(1, 2), Fraction(1))
_PASSING = ("exact-pass", "numeric-pass")
_SUMMARY = re.compile(r"asserted: (\d+)/(\d+) passed; recorded audits: \d+")


@dataclass(frozen=True)
class Verdict:
    failure: Optional[str] = None   # None, "refused", "inaccurate" or "wrong"
    detail: str = ""
    max_err: float = 0.0            # worst curve error seen, on the CURVE_TOL scale


OK = Verdict()


def _wrong(detail: str) -> Verdict:
    return Verdict("wrong", detail)


def _refused_or_wrong(out: Outcome) -> Verdict:
    """Verdict for a request that did not return normally."""
    if out.error is not None:
        name = type(out.error).__name__
        if name in ("AccuracyError", "ParameterError", "DomainError"):
            return Verdict("refused", f"{name}: {out.error}")
        return _wrong(f"{name}: {out.error}")
    if out.rc in (2, 3):
        return Verdict("refused", f"exit {out.rc}: {out.stderr.strip()[:200]}")
    return _wrong(f"exit {out.rc}: {out.stderr.strip()[:200]}")


# ---------------------------------------------------------------------------
# exact curve reference


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff."""
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


class CurveReference:
    """C_n^lam in u = sign(x)|x|^a, evaluated exactly at float points.

    The coefficients share one denominator and only every other power of u
    is present, so evaluation is integer Horner in u^2."""

    def __init__(self, n: int, lam: Fraction):
        coeffs = [Fraction(0)] * (n + 1)
        for s in range(n // 2 + 1):
            k = n - 2 * s
            poch = Fraction(1)
            for i in range(n - s):
                poch *= lam + i
            coeffs[k] = (-1) ** s * poch * 2 ** k / (math.factorial(s) * math.factorial(k))
        self.n = n
        self.parity = n % 2
        den = math.lcm(*(c.denominator for c in coeffs))
        # numerators of u^parity * (u^2)^j, highest j first
        self.nums = [c.numerator * (den // c.denominator)
                     for c in coeffs[self.parity::2]][::-1]
        self.den = den
        self.abs_coeffs = [abs(float(c)) for c in coeffs]
        # sup norm on [-1, 1] is C_n^lam(1) = sum of coefficients
        self.scale = max(1.0, float(sum(coeffs)))

    def exact(self, u: float) -> float:
        """Correctly rounded value at the float u = m / 2^s."""
        m, d = u.as_integer_ratio()
        s = d.bit_length() - 1
        m2 = m * m
        acc, shift = 0, 0
        for num in self.nums:
            acc = acc * m2 + (num << shift)
            shift += 2 * s
        shift -= 2 * s  # the denominator is den * 2^(2 s J), J = len(nums) - 1
        if self.parity:
            acc *= m
            shift += s
        return acc / (self.den << shift)  # int division rounds correctly

    def rounding_bound(self, u: float) -> float:
        """gamma_(4n+2) * sum_k |c_k| |u|^k: the most float Horner over the
        coefficients rounded to floats can be off at u, or at a u one ulp
        away.  Horner itself contributes gamma_2n (Higham, Accuracy and
        Stability of Numerical Algorithms, 2nd ed., eq. 5.3), rounding the
        coefficients one unit more, and a one-ulp change of u at most
        2 n units.  The sum has no cancellation, so float Horner gets it
        to within gamma_(2n+1), which the bound's margin covers."""
        total, au = 0.0, abs(u)
        for c in reversed(self.abs_coeffs):
            total = total * au + c
        return _gamma(4 * self.n + 2) * total

    def error(self, x: float, alpha: float, value: float) -> tuple[float, bool]:
        """(error on the curve's scale, whether rounding cannot explain it)."""
        if not math.isfinite(value):
            return math.inf, True
        u = math.copysign(abs(x) ** alpha, x)
        err = abs(value - self.exact(u))
        if err <= CURVE_TOL * self.scale:
            return err / self.scale, False
        return err / self.scale, err > self.rounding_bound(u)


# ---------------------------------------------------------------------------
# quadrature reference


def classical_norm(n: int, lam: Fraction) -> float:
    """h_n = pi 2^(1-2 lam) G(n + 2 lam) / (n! (n + lam) G(lam)^2)."""
    lam_f = float(lam)
    return (math.pi * 2.0 ** (1.0 - 2.0 * lam_f) * math.gamma(n + 2.0 * lam_f)
            / (math.factorial(n) * (n + lam_f) * math.gamma(lam_f) ** 2))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


class Checker:
    """Checks outcomes; caches curve references across requests."""

    def __init__(self) -> None:
        self._refs: dict[tuple[int, Fraction], CurveReference] = {}

    def reference(self, n: int, lam: Fraction) -> CurveReference:
        key = (n, lam)
        if key not in self._refs:
            self._refs[key] = CurveReference(n, lam)
        return self._refs[key]

    def check(self, req: dict, out: Outcome) -> Verdict:
        normal = out.error is None and (out.rc in (None, 0))
        if not normal:
            return _refused_or_wrong(out)
        try:
            return getattr(self, "_" + req["op"].replace("-", "_"))(req, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return _wrong(f"unreadable output: {type(exc).__name__}: {exc}")

    # -- verify

    def _verify(self, req: dict, out: Outcome) -> Verdict:
        expected = ASSERTED_PER_FULL_RUN if req["suite"] == "all" else 1
        if req["json"]:
            reports = json.loads(out.stdout)
            asserted = [r for r in reports if r["asserted"]]
            passed = sum(1 for r in asserted if r["status"] in _PASSING)
            total = len(asserted)
        else:
            match = _SUMMARY.fullmatch(out.stdout.rstrip().splitlines()[-1])
            if match is None:
                return _wrong("no 'asserted: k/k passed' summary line")
            passed, total = int(match.group(1)), int(match.group(2))
        if passed != total or total != expected:
            return _wrong(f"asserted {passed}/{total} passed, expected "
                          f"{expected}/{expected}")
        return OK

    # -- curves

    def _curve_rows(self, out: Outcome, n: int, lam: Fraction,
                    points: list[tuple[float, Fraction]]) -> Verdict:
        lines = out.stdout.splitlines()
        if not lines or lines[0] != "x,alpha,value":
            return _wrong("missing CSV header")
        if len(lines) - 1 != len(points):
            return _wrong(f"{len(lines) - 1} rows, expected {len(points)}")
        ref = self.reference(n, lam)
        worst = 0.0
        for line, (x, alpha) in zip(lines[1:], points):
            x_text, a_text, v_text = line.split(",")
            a = float(alpha)
            if float(x_text) != x or float(a_text) != a:
                return _wrong(f"row {line!r} is not at x={x!r}, alpha={a!r}")
            err, beyond_rounding = ref.error(x, a, float(v_text))
            worst = max(worst, err)
            if beyond_rounding:
                return Verdict("wrong", f"row {line!r}: error {err:.3g} is past "
                               "float Horner's rounding bound", worst)
        if worst > CURVE_TOL:
            return Verdict("inaccurate", f"error {worst:.3g} > {CURVE_TOL:g}", worst)
        return Verdict(None, "", worst)

    def _eval(self, req: dict, out: Outcome) -> Verdict:
        alpha = Fraction(req["alpha"])
        points = [(float(x), alpha) for x in req["x"]]
        return self._curve_rows(out, req["n"], Fraction(req["lam"]), points)

    def _plot_data(self, req: dict, out: Outcome) -> Verdict:
        lo = -1.0 if req["signed"] else 0.0
        xs = [float(x) for x in np.linspace(lo, 1.0, req["samples"])]
        alphas = sorted({Fraction(a) for a in req["alphas"]})
        points = [(x, alpha) for alpha in alphas for x in xs]
        return self._curve_rows(out, req["n"], Fraction(req["lam"]), points)

    # -- quadrature

    def _audit(self, req: dict, out: Outcome) -> Verdict:
        lines = out.stdout.splitlines()
        grid = [(n, lam, alpha) for lam in AUDIT_LAMBDAS for alpha in AUDIT_ALPHAS
                for n in range(req["n_max"] + 1)]
        if len(lines) - 1 != len(grid):
            return _wrong(f"{len(lines) - 1} audit rows, expected {len(grid)}")
        for line, (n, lam, alpha) in zip(lines[1:], grid):
            cols = line.split(",")
            if (int(cols[0]), Fraction(cols[1]), Fraction(cols[2])) != (n, lam, alpha):
                return _wrong(f"audit row {line!r} out of grid order")
            derived = classical_norm(n, lam) / float(alpha)
            if _rel(float(cols[6]), derived) > 1e-12:
                return _wrong(f"derived value {cols[6]} != {derived!r} at n={n}")
            if _rel(float(cols[3]), derived) > AUDIT_TOL:
                return _wrong(f"quadrature {cols[3]} off derived {derived!r} at n={n}")
        return OK

    def _orthogonality(self, req: dict, out: Outcome) -> Verdict:
        report = out.value
        if report.status != "numeric-pass" or not report.max_residual <= ORTH_TOL:
            return _wrong(f"status {report.status}, residual {report.max_residual!r}")
        return OK

    def _direct(self, req: dict, out: Outcome) -> Verdict:
        m, n, lam = req["m"], req["n"], Fraction(req["lam"])
        alpha = float(Fraction(req["alpha"]))
        value = out.value.value
        if m == n:
            derived = classical_norm(n, lam) / alpha
            if _rel(value, derived) > AUDIT_TOL:
                return _wrong(f"diagonal {value!r} off derived {derived!r}")
        else:
            scale = math.sqrt(classical_norm(m, lam) * classical_norm(n, lam)) / alpha
            if abs(value) > ORTH_TOL * scale:
                return _wrong(f"off-diagonal {value!r} not ~0 on scale {scale!r}")
        return OK
