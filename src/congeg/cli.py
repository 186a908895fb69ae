"""Command-line interface.

Subcommands:
  table      print family members as exact expressions
  eval       evaluate one member at given points (CSV)
  plot-data  dense evaluation grid for plotting (CSV)
  verify     run the asserted identity checks plus the recorded audits
  audit      normalization audit table (CSV) and report

Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
3 quadrature accuracy failure.

Options may also come from a JSON file via --config; flags given on the
command line win over config values.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .alphapoly import DomainError, ParameterError
from .gegenbauer import GegenbauerSpec, from_recurrence, from_series
from .quadrature import (AccuracyError, audit_rows_to_csv, default_audit_grid,
                         normalization_audit, orthogonality_check)
from .verify import SUITES as EXACT_SUITES, ParamGrid, VerificationReport
from .verify import reports_to_json, reports_to_text, run_recorded_audits

__all__ = ["SUITES", "main"]

# Every asserted suite by `verify --suite` name, in report order: the exact
# suites, then the quadrature ones.  Every verify run appends the recorded
# audits.
SUITES: dict[str, Callable[[ParamGrid, bool], VerificationReport]] = {
    **EXACT_SUITES,
    "orthogonality": lambda grid, inject: orthogonality_check(n_max=grid.n_max),
    "normalization-audit": lambda grid, inject: normalization_audit(),
}


@dataclass(frozen=True)
class TableDefaults:
    n_max: int = 6
    lam: Fraction = Fraction(3)
    alpha: Fraction = Fraction(1, 2)


@dataclass(frozen=True)
class PlotDataDefaults:
    n: int = 4
    lam: Fraction = Fraction(3)
    alphas: tuple = (Fraction(1, 2), Fraction(7, 10), Fraction(9, 10), Fraction(1))
    samples: int = 201
    signed_domain: bool = False


@dataclass(frozen=True)
class VerifyDefaults:
    n_max: int = 8


@dataclass(frozen=True)
class AuditDefaults:
    n_max: int = 6
    tol: float = 1e-6


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="congeg",
        description="Conformable Gegenbauer polynomial family: tables, "
                    "evaluation grids, identity verification, and the "
                    "normalization audit.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=str, default=None,
                       help="JSON file of option values; explicit flags win")

    t = sub.add_parser("table", help="print C_0..C_n as exact expressions")
    t.add_argument("--n-max", type=int, default=None, help="highest degree")
    t.add_argument("--lambda", dest="lam", type=_fraction, default=None,
                   help="weight parameter, rational, > 0 (e.g. 5/2)")
    t.add_argument("--alpha", type=_fraction, default=None,
                   help="order, rational in (0, 1]")
    common(t)

    e = sub.add_parser("eval", help="evaluate C_n at given points (CSV)")
    e.add_argument("--n", type=int, default=None, help="degree")
    e.add_argument("--lambda", dest="lam", type=_fraction, default=None,
                   help="weight parameter, rational, > 0")
    e.add_argument("--alpha", type=_fraction, default=None,
                   help="order, rational in (0, 1]")
    e.add_argument("--x", type=float, nargs="+", default=None,
                   help="evaluation points")
    common(e)

    pd = sub.add_parser("plot-data",
                        help="CSV grid of one member across several orders")
    pd.add_argument("--n", type=int, default=None, help="degree")
    pd.add_argument("--lambda", dest="lam", type=_fraction, default=None,
                    help="weight parameter, rational, > 0")
    pd.add_argument("--alpha", dest="alphas", type=_fraction, action="append",
                    default=None, help="order; repeat for several curves")
    pd.add_argument("--samples", type=int, default=None,
                    help="points per curve")
    pd.add_argument("--signed-domain", action="store_true", default=None,
                    help="sample x in [-1, 1] instead of [0, 1]")
    pd.add_argument("--out", type=str, default=None,
                    help="write CSV here instead of stdout")
    common(pd)

    v = sub.add_parser("verify",
                       help="run asserted identity checks and recorded audits")
    v.add_argument("--n-max", type=int, default=None,
                   help="highest degree in the sweep")
    v.add_argument("--suite", choices=sorted(("all", *SUITES)), default=None,
                   help="run a single asserted suite (default: all)")
    v.add_argument("--json", action="store_true", default=None,
                   help="emit the report as JSON")
    v.add_argument("--inject-defect", action="store_true", default=None,
                   help=argparse.SUPPRESS)
    common(v)

    a = sub.add_parser("audit",
                       help="normalization audit table (CSV) and report")
    a.add_argument("--n-max", type=int, default=None,
                   help="highest degree per (weight, order) cell")
    a.add_argument("--tol", type=float, default=None,
                   help="asserted relative tolerance, quadrature vs derived")
    a.add_argument("--out", type=str, default=None,
                   help="write the CSV here instead of stdout")
    common(a)

    return parser


def _json_typed(kinds: tuple, what: str,
                convert: Callable[[object], object] = lambda v: v):
    """Config coercer that first requires a JSON type: bool("false") is True,
    int(2.7) truncates, int(True) is 1, and a string iterates by character."""
    def coerce(value: object) -> object:
        if type(value) not in kinds:
            raise ValueError(f"expected {what}, got {value!r}")
        return convert(value)
    return coerce


def _tolerance(value: float) -> float:
    # the chained comparison also rejects nan and inf
    if not 0 < value < 1:
        raise ValueError(f"must lie strictly between 0 and 1, got {value!r}")
    return value


_COUNT = _json_typed((int, str), "an integer", int)
_FLAG = _json_typed((bool,), "true or false")

# config keys are coerced per destination so JSON numbers and strings both work
_COERCERS = {
    "n": _COUNT,
    "n_max": _COUNT,
    "samples": _COUNT,
    "lam": _fraction,
    "alpha": _fraction,
    "alphas": _json_typed((list,), "a JSON array",
                          lambda v: tuple(_fraction(item) for item in v)),
    "x": _json_typed((list,), "a JSON array", lambda v: [float(item) for item in v]),
    "tol": _json_typed((int, float), "a number", lambda v: _tolerance(float(v))),
    "suite": str,
    "signed_domain": _FLAG,
    "json": _FLAG,
    "inject_defect": _FLAG,
    "out": str,
}


def _apply_config(args: argparse.Namespace) -> None:
    """Fill options the command line left unset from the JSON config file."""
    if not getattr(args, "config", None):
        return
    text = Path(args.config).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParameterError("config file must hold a JSON object")
    for key, raw in data.items():
        dest = key.replace("-", "_")
        if dest == "lambda":
            dest = "lam"
        if dest in ("command", "config") or not hasattr(args, dest):
            raise ParameterError(
                f"config key {key!r} is not an option of the "
                f"{args.command!r} subcommand")
        if getattr(args, dest) is None:
            try:
                value = _COERCERS[dest](raw)
            except (ValueError, TypeError, ArithmeticError,
                    argparse.ArgumentTypeError) as exc:
                raise ParameterError(f"config key {key!r}: {exc}") from exc
            setattr(args, dest, value)


def _cmd_table(args: argparse.Namespace) -> int:
    d = TableDefaults()
    n_max = d.n_max if args.n_max is None else args.n_max
    lam = d.lam if args.lam is None else args.lam
    alpha = d.alpha if args.alpha is None else args.alpha
    if n_max < 0:
        raise ParameterError(f"--n-max must be >= 0, got {n_max}")
    lines = [str(from_series(GegenbauerSpec(k, lam, alpha)))
             for k in range(n_max + 1)]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _csv_rows(poly, alpha: Fraction, xs: Sequence[float]) -> list[str]:
    a = float(alpha)
    return [f"{float(x)!r},{a!r},{poly.evaluate(float(x))!r}" for x in xs]


def _cmd_eval(args: argparse.Namespace) -> int:
    d = TableDefaults()
    n = args.n
    if n is None:
        raise ParameterError("eval requires --n")
    if args.x is None:
        raise ParameterError("eval requires --x with at least one point")
    lam = d.lam if args.lam is None else args.lam
    alpha = d.alpha if args.alpha is None else args.alpha
    poly = from_recurrence(GegenbauerSpec(n, lam, alpha))
    sys.stdout.write("\n".join(["x,alpha,value"] + _csv_rows(poly, alpha, args.x)) + "\n")
    return 0


def _cmd_plot_data(args: argparse.Namespace) -> int:
    d = PlotDataDefaults()
    n = d.n if args.n is None else args.n
    lam = d.lam if args.lam is None else args.lam
    alphas = d.alphas if args.alphas is None else tuple(args.alphas)
    samples = d.samples if args.samples is None else args.samples
    signed = d.signed_domain if args.signed_domain is None else args.signed_domain
    if samples < 2:
        raise ParameterError(f"--samples must be >= 2, got {samples}")
    lo = -1.0 if signed else 0.0
    xs = [float(x) for x in np.linspace(lo, 1.0, samples)]
    lines = ["x,alpha,value"]
    for alpha in sorted(set(alphas)):
        poly = from_series(GegenbauerSpec(n, lam, alpha))
        lines.extend(_csv_rows(poly, alpha, xs))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {len(lines) - 1} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    d = VerifyDefaults()
    n_max = d.n_max if args.n_max is None else args.n_max
    suite = "all" if args.suite is None else args.suite
    if suite != "all" and suite not in SUITES:
        raise ParameterError(
            f"unknown suite {suite!r}; choose from {', '.join(('all', *SUITES))}")
    if n_max < 3:
        raise ParameterError(f"--n-max must be >= 3 for the sweeps, got {n_max}")
    grid = ParamGrid(n_max=n_max)
    inject = bool(args.inject_defect)
    reports = [build(grid, inject) for name, build in SUITES.items()
               if suite in ("all", name)]
    reports.extend(run_recorded_audits())
    if args.json:
        print(reports_to_json(reports))
    else:
        print(reports_to_text(reports))
    gating = [r for r in reports if r.asserted]
    failed = [r for r in gating if not r.passed]
    if not args.json:
        print()
        print(f"asserted: {len(gating) - len(failed)}/{len(gating)} passed; "
              f"recorded audits: {sum(1 for r in reports if not r.asserted)}")
    return 0 if not failed else 1


def _cmd_audit(args: argparse.Namespace) -> int:
    d = AuditDefaults()
    n_max = d.n_max if args.n_max is None else args.n_max
    tol = d.tol if args.tol is None else args.tol
    if n_max < 0:
        raise ParameterError(f"--n-max must be >= 0, got {n_max}")
    try:
        _tolerance(tol)
    except ValueError as exc:
        raise ParameterError(f"--tol {exc}") from None
    report = normalization_audit(default_audit_grid(n_max), rel_tol=tol)
    csv_text = audit_rows_to_csv(report.table)
    if args.out:
        Path(args.out).write_text(csv_text)
        print(f"wrote {len(report.table)} rows to {args.out}")
        print(report.to_text())
    else:
        sys.stdout.write(csv_text)
    return 0 if report.passed else 1


_DISPATCH = {
    "table": _cmd_table,
    "eval": _cmd_eval,
    "plot-data": _cmd_plot_data,
    "verify": _cmd_verify,
    "audit": _cmd_audit,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        return _DISPATCH[args.command](args)
    except AccuracyError as exc:
        print(f"accuracy failure: {exc} (best estimate {exc.best.value!r} "
              f"+- {exc.best.error!r})", file=sys.stderr)
        return 3
    except (ParameterError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
