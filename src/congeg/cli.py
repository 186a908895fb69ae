"""Command-line interface.

Subcommands:
  table      print family members as exact expressions
  eval       evaluate one member at given points (CSV)
  plot-data  dense evaluation grid for plotting (CSV)
  verify     run the asserted identity checks plus the recorded audits
  audit      normalization audit table (CSV) and report

Exit codes: 0 success, 1 verification failure, 2 usage or domain error
(eval takes points in [-1, 1] only), 3 accuracy failure of a quadrature or
of float evaluation.

Options may also come from a JSON file via --config; flags given on the
command line win over config values.

Each command imports only the layers it runs, when it runs: `table`, `eval`
and `plot-data` need `alphapoly` and `gegenbauer`; `audit` adds `quadrature`,
and `verify` adds `quadrature` and `verify`.  The parser reads the suite
names from `report`, which loads no other layer.
"""
from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Sequence

from .alphapoly import (AccuracyError, DomainError, ParameterError, _as_count, _as_order,
                        _sample_grid)
from .gegenbauer import GegenbauerSpec, from_series

__all__ = ["main"]

# Per subcommand, the value of each option that neither the command line nor
# the config file set.  eval has no default for --n or --x.
_DEFAULTS = {
    "table": {"n_max": 6, "lam": Fraction(3)},
    "eval": {"lam": Fraction(3), "alpha": Fraction(1, 2)},
    "plot-data": {"n": 4, "lam": Fraction(3),
                  "alphas": (Fraction(1, 2), Fraction(7, 10), Fraction(9, 10),
                             Fraction(1)),
                  "samples": 201, "signed_domain": False},
    "verify": {"n_max": 8, "suite": "all"},
    "audit": {"n_max": 6, "tol": 1e-6},
}


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _out_path(text: str) -> str:
    # an empty path names no file, and must not pass for "not given"
    if not text:
        raise argparse.ArgumentTypeError("must name a file, got an empty path")
    return text


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and then shared: each parse fills a
    fresh Namespace, so no option carries over from one call to the next."""
    from .report import SUITE_NAMES

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
    pd.add_argument("--out", type=_out_path, default=None,
                    help="write CSV here instead of stdout")
    common(pd)

    v = sub.add_parser("verify",
                       help="run asserted identity checks and recorded audits")
    v.add_argument("--n-max", type=int, default=None,
                   help="highest degree in the sweep")
    v.add_argument("--suite", choices=sorted(("all", *SUITE_NAMES)), default=None,
                   help="run a single asserted suite (default: all)")
    v.add_argument("--json", action="store_true", default=None,
                   help="emit the report as JSON")
    common(v)

    a = sub.add_parser("audit",
                       help="normalization audit table (CSV) and report")
    a.add_argument("--n-max", type=int, default=None,
                   help="highest degree per (weight, order) cell")
    a.add_argument("--tol", type=float, default=None,
                   help="asserted relative tolerance, quadrature vs derived")
    a.add_argument("--out", type=_out_path, default=None,
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
_NUMBER = _json_typed((int, float), "a number", float)
_FLAG = _json_typed((bool,), "true or false")
_STRING = _json_typed((str,), "a string")

# config keys are coerced per destination so JSON numbers and strings both work
_COERCERS = {
    "n": _COUNT,
    "n_max": _COUNT,
    "samples": _COUNT,
    "lam": _fraction,
    "alpha": _fraction,
    "alphas": _json_typed((list,), "a JSON array",
                          lambda v: tuple(_fraction(item) for item in v)),
    "x": _json_typed((list,), "a JSON array", lambda v: [_NUMBER(item) for item in v]),
    "tol": lambda v: _tolerance(_NUMBER(v)),
    "suite": _STRING,
    "signed_domain": _FLAG,
    "json": _FLAG,
    "out": _json_typed((str,), "a string", _out_path),
}


def _apply_config(args: argparse.Namespace) -> None:
    """Fill every option the command line left unset: from the JSON config
    file first, then from the subcommand's defaults."""
    data = {}
    if getattr(args, "config", None):
        import json  # only a config file needs it
        try:
            data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
    for dest, value in _DEFAULTS[args.command].items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)


def _float_order(alpha: Fraction) -> float:
    """A checked order as the float that is evaluated and printed."""
    a = float(_as_order(alpha))
    if a == 0.0:
        raise ParameterError("order rounds to 0.0 as a float, outside (0, 1]")
    return a


def _cmd_table(args: argparse.Namespace) -> int:
    _as_count(args.n_max, "--n-max")
    lines = [str(from_series(GegenbauerSpec(k, args.lam))) for k in range(args.n_max + 1)]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    if args.n is None:
        raise ParameterError("eval requires --n")
    if not args.x:
        raise ParameterError("eval requires --x with at least one point")
    for x in args.x:
        # the chained comparison also rejects nan
        if not -1.0 <= x <= 1.0:
            raise ParameterError(f"eval points must lie in [-1, 1], got {x!r}")
    spec = GegenbauerSpec(args.n, args.lam)
    a = _float_order(args.alpha)
    label = f",{a!r},"
    rows = [f"{x!r}{label}{v!r}" for x, v in zip(args.x, from_series(spec).values(args.x, a))]
    sys.stdout.write("\n".join(["x,alpha,value"] + rows) + "\n")
    return 0


def _cmd_plot_data(args: argparse.Namespace) -> int:
    if not args.alphas:
        raise ParameterError("plot-data requires at least one --alpha")
    xs = _sample_grid(-1.0 if args.signed_domain else 0.0, args.samples)
    spec = GegenbauerSpec(args.n, args.lam)
    # checked in sorted order, so the first error is the smallest order's;
    # two orders that round to one float are one curve
    alphas = dict.fromkeys(_float_order(alpha) for alpha in sorted(args.alphas))
    poly = from_series(spec)
    xtexts = [f"{x!r}," for x in xs]
    lines = ["x,alpha,value"]
    for a in alphas:
        label = f"{a!r},"
        lines.extend([f"{xtext}{label}{v!r}"
                      for xtext, v in zip(xtexts, poly.values(xs, a))])
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        Path(args.out).write_text(text)
        print(f"wrote {len(lines) - 1} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .report import reports_to_json, reports_to_text, summary
    from .verify import ParamGrid, run_asserted_checks, run_recorded_audits

    reports = run_asserted_checks(ParamGrid(n_max=args.n_max), suite=args.suite)
    reports.extend(run_recorded_audits())
    line, status = summary(reports)
    if args.json:
        print(reports_to_json(reports))
    else:
        print(reports_to_text(reports))
        print()
        print(line)
    return status


def _cmd_audit(args: argparse.Namespace) -> int:
    from .quadrature import audit_rows_to_csv, default_audit_grid, normalization_audit

    _as_count(args.n_max, "--n-max")
    try:
        _tolerance(args.tol)
    except ValueError as exc:
        raise ParameterError(f"--tol {exc}") from None
    report = normalization_audit(default_audit_grid(args.n_max), rel_tol=args.tol)
    csv_text = audit_rows_to_csv(report.table)
    if args.out is not None:
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
        print(f"accuracy failure: {exc}", file=sys.stderr)
        return 3
    except (ParameterError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
