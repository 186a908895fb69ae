"""Command-line interface: the commands table, eval, plot-data, verify and
audit, each described with its options in the one table `_COMMANDS`.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error
(eval takes points in [-1, 1] only), 3 accuracy failure of a quadrature or
of float evaluation.

An option's row gives its flag, kind, converter, JSON type, default and
help.  `_parse` scans argv against the table, `_apply_config` coerces
`--config` values through it (flags given on the command line win), and
`-h`/`--help` prints help made from it.  A flag may be abbreviated to a
unique prefix or written `--opt=value`; a token that starts with `-` is a
value whenever float() or Fraction() reads it (`--x -1e-05`, `--lambda -1/2`,
which the weight check then refuses); a repeated option keeps its
last value, but `--x` adds points and plot-data's `--alpha` adds an order.
A usage error prints `congeg CMD: error: ...` and raises SystemExit(2).

Each command imports only the layers it runs, when it runs: `table`, `eval`
and `plot-data` need `alphapoly` and `gegenbauer`; `audit` adds `quadrature`,
and `verify` adds `quadrature` and `verify`.  The table reads the suite
names from `report`, which loads no other layer.
"""
from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Optional, Sequence

from .alphapoly import (AccuracyError, DomainError, ParameterError, _as_count, _as_order,
                        _as_tolerance, _sample_grid)
from .gegenbauer import GegenbauerSpec, _member_values, from_series
from .report import SUITE_NAMES

__all__ = ["main"]

_SUITES = tuple(sorted(("all", *SUITE_NAMES)))


def _fraction(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def _out_path(text: str) -> str:
    # an empty path names no file, and must not pass for "not given"
    if not text:
        raise ValueError("must name a file, got an empty path")
    return text


def _suite(text: str) -> str:
    if text not in _SUITES:
        raise ValueError(f"invalid choice: {text!r} (choose from {', '.join(_SUITES)})")
    return text


def _tolerance(text) -> float:
    return _as_tolerance(float(text), "--tol")  # out of range: a domain error, not usage


def _help(command: Optional[str]):
    """Print help made from the table, one command's or every command's, and exit 0."""
    lines = [f"usage: congeg {command or 'COMMAND'} [options]", ""]
    for name in [command] if command else _COMMANDS:
        lines.append(f"{name}: {_COMMANDS[name][1]}")
        for flag, dest, kind, *_, text in (*_COMMANDS[name][2], _HELP):
            usage = {"flag": flag, "help": "-h, --help", "many": f"{flag} {dest.upper()} [...]"}
            lines.append(f"  {usage.get(kind, f'{flag} {dest.upper()}'):<24}{text}")
        lines.append("")
    sys.stdout.write("\n".join(lines))
    raise SystemExit(0)


def _usage_error(prog: str, message: str):
    print(f"{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _is_value(token: str) -> bool:
    """Not an option: a token that starts with `-` is a value if float() or
    Fraction() reads it (`-1e-05`, `-1/2`)."""
    if token.startswith("-"):
        try:
            float(token)
        except ValueError:
            try:
                Fraction(token)
            except (ValueError, ZeroDivisionError):
                return False
    return True


def _parse(argv: list[str]) -> SimpleNamespace:
    """The command and its options from argv; an option not given is None."""
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        _help(None)
    if command not in _COMMANDS:
        _usage_error("congeg", f"{f'unknown command {command!r}' if argv else 'no command'} "
                               f"(choose from {', '.join(_COMMANDS)})")
    prog, options = f"congeg {command}", (*_COMMANDS[command][2], _HELP)
    values, unknown, i = dict.fromkeys(opt[1] for opt in options[:-1]), [], 1
    while i < len(argv):
        token, i = argv[i], i + 1
        name, eq, text = ("--help", "", "") if token == "-h" else token.partition("=")
        # the exact flag, else every flag the token abbreviates
        found = ([opt for opt in options if opt[0] == name]
                 or [opt for opt in options if len(name) > 2 and opt[0].startswith(name)])
        if len(found) > 1:
            _usage_error(prog, f"ambiguous option: {name} could match "
                         + ", ".join(opt[0] for opt in found))
        if not found:  # reported once the scan is done, after any help
            unknown.append(token)
            continue
        flag, dest, kind, convert = found[0][:4]
        if kind in ("flag", "help"):
            if eq:
                _usage_error(prog, f"argument {flag}: takes no value, got {text!r}")
            if kind == "help":
                _help(command)
            values[dest] = True
            continue
        texts = [text] if eq else []
        while i < len(argv) and (kind == "many" or not texts) and _is_value(argv[i]):
            texts.append(argv[i])
            i += 1
        if not texts:
            _usage_error(prog, f"argument {flag}: expected a value")
        try:
            got = [convert(text) for text in texts]
        except ParameterError:  # a domain error, as --tol's range: main reports it
            raise
        except ValueError as exc:
            _usage_error(prog, f"argument {flag}: {exc}")
        values[dest] = got[0] if kind == "one" else [*(values[dest] or ()), *got]
    if unknown:
        _usage_error(prog, f"unrecognized arguments: {' '.join(unknown)}")
    return SimpleNamespace(command=command, **values)


def _from_json(value: object, kind: str, convert, json_type: tuple) -> object:
    """A config value, of the JSON type (each item, for a list), as the option's value."""
    types, what = json_type
    items = value if kind in ("many", "append") else [value]
    if type(items) is not list:
        raise ValueError(f"expected a JSON array, got {value!r}")
    if wrong := [item for item in items if type(item) not in types]:
        raise ValueError(f"expected {what}, got {wrong[0]!r}")
    return list(map(convert, items)) if kind in ("many", "append") else convert(value)


def _apply_config(args: SimpleNamespace) -> None:
    """Fill every option the command line left unset: from the JSON config
    file first, then from the table's defaults."""
    options = _COMMANDS[args.command][2]
    if args.config:
        import json  # only a config file needs it
        try:
            data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParameterError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ParameterError("config file must hold a JSON object")
        for key, raw in data.items():
            dest = "lam" if key == "lambda" else key.replace("-", "_")
            opt = next((opt for opt in options if opt[1] == dest and opt[4]), None)
            if opt is None:
                raise ParameterError(f"config key {key!r} is not an option of the "
                                     f"{args.command!r} subcommand")
            if getattr(args, opt[1]) is None:
                try:
                    setattr(args, opt[1], _from_json(raw, *opt[2:5]))
                except (ValueError, TypeError, ArithmeticError) as exc:
                    raise ParameterError(f"config key {key!r}: {exc}") from exc
    for opt in options:
        if getattr(args, opt[1]) is None:
            setattr(args, opt[1], opt[5])


def _cmd_table(args: SimpleNamespace) -> int:
    _as_count(args.n_max, "--n-max")
    lines = [str(from_series(GegenbauerSpec(k, args.lam))) for k in range(args.n_max + 1)]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_eval(args: SimpleNamespace) -> int:
    if args.n is None:
        raise ParameterError("eval requires --n")
    if not args.x:
        raise ParameterError("eval requires --x with at least one point")
    for x in args.x:
        # the chained comparison also rejects nan
        if not -1.0 <= x <= 1.0:
            raise ParameterError(f"eval points must lie in [-1, 1], got {x!r}")
    spec = GegenbauerSpec(args.n, args.lam)
    a = float(_as_order(args.alpha))
    label = f",{a!r},"
    values = _member_values(spec.n, *spec.lam.as_integer_ratio(), args.x, a)
    rows = [f"{x!r}{label}{v!r}" for x, v in zip(args.x, values)]
    sys.stdout.write("\n".join(["x,alpha,value"] + rows) + "\n")
    return 0


def _cmd_plot_data(args: SimpleNamespace) -> int:
    if not args.alphas:
        raise ParameterError("plot-data requires at least one --alpha")
    xs = _sample_grid(-1.0 if args.signed_domain else 0.0, args.samples)
    spec = GegenbauerSpec(args.n, args.lam)
    # checked in sorted order, so the first error is the smallest order's;
    # two orders that round to one float are one curve
    alphas = dict.fromkeys(float(_as_order(alpha)) for alpha in sorted(args.alphas))
    p, q = spec.lam.as_integer_ratio()
    # every curve is evaluated before a byte is written, so a refusal
    # writes nothing; then the rows go out one curve at a time
    curves = [(f"{a!r},", _member_values(spec.n, p, q, xs, a)) for a in alphas]
    xtexts = [f"{x!r}," for x in xs]
    chunks = ("".join([f"{xtext}{label}{v!r}\n" for xtext, v in zip(xtexts, values)])
              for label, values in curves)
    if args.out is not None:
        with open(args.out, "w") as out:
            out.write("x,alpha,value\n")
            out.writelines(chunks)
        print(f"wrote {len(curves) * len(xs)} rows to {args.out}")
    else:
        sys.stdout.write("x,alpha,value\n")
        sys.stdout.writelines(chunks)
    return 0


def _cmd_verify(args: SimpleNamespace) -> int:
    from .report import reports_to_json, reports_to_text, summary
    from .verify import run_asserted_checks, run_recorded_audits

    reports = run_asserted_checks(args.n_max, suite=args.suite)
    reports.extend(run_recorded_audits())
    line, status = summary(reports)
    print(reports_to_json(reports) if args.json else f"{reports_to_text(reports)}\n\n{line}")
    return status


def _cmd_audit(args: SimpleNamespace) -> int:
    from .quadrature import audit_rows_to_csv, normalization_audit

    _as_count(args.n_max, "--n-max")
    report = normalization_audit(args.n_max, rel_tol=args.tol)
    csv_text = audit_rows_to_csv(report.table)
    if args.out is not None:
        Path(args.out).write_text(csv_text)
        print(f"wrote {len(report.table)} rows to {args.out}")
        print(report.to_text())
    else:
        sys.stdout.write(csv_text)
    return 0 if report.passed else 1


# JSON types a config value may take, tested first: bool("false") is True,
# int(2.7) truncates, int(True) is 1 and a string iterates by character
_INT = ((int, str), "an integer")
_NUMBER = ((int, float), "a number")
_RATIONAL = ((int, float, str), "a rational number")
_STRING = ((str,), "a string")
_BOOL = ((bool,), "true or false")

_LAMBDA = ("--lambda", "lam", "one", _fraction, _RATIONAL, Fraction(3), "weight, rational, > 0")
_CONFIG = ("--config", "config", "one", str, None, None, "JSON file of option values; flags win")
_HELP = ("--help", "help", "help", None, None, None, "show this help and exit")

# Per command: its function, help line and options, each (flag, dest, kind,
# converter, JSON type, default, help).  Kinds: "one" takes a value, "many"
# one or more and "append" one per use, added to a list; "flag" takes none.
# The converter reads a value's text or a config value of the JSON type (a
# ValueError is a usage error); a JSON type of None marks no config key.
_COMMANDS = {
    "table": (_cmd_table, "print C_0..C_n as exact expressions", (
        ("--n-max", "n_max", "one", int, _INT, 6, "highest degree"),
        _LAMBDA, _CONFIG)),
    "eval": (_cmd_eval, "evaluate C_n at given points (CSV)", (
        ("--n", "n", "one", int, _INT, None, "degree"),
        _LAMBDA,
        ("--alpha", "alpha", "one", _fraction, _RATIONAL, Fraction(1, 2), "order in (0, 1]"),
        ("--x", "x", "many", float, _NUMBER, None, "points in [-1, 1]; repeat to add more"),
        _CONFIG)),
    "plot-data": (_cmd_plot_data, "CSV grid of one member across several orders", (
        ("--n", "n", "one", int, _INT, 4, "degree"),
        _LAMBDA,
        ("--alpha", "alphas", "append", _fraction, _RATIONAL,
         (Fraction(1, 2), Fraction(7, 10), Fraction(9, 10), Fraction(1)),
         "order; repeat for several curves (default: 1/2, 7/10, 9/10, 1)"),
        ("--samples", "samples", "one", int, _INT, 201, "points per curve"),
        ("--signed-domain", "signed_domain", "flag", bool, _BOOL, False,
         "sample x in [-1, 1] instead of [0, 1]"),
        ("--out", "out", "one", _out_path, _STRING, None, "write CSV here instead of stdout"),
        _CONFIG)),
    "verify": (_cmd_verify, "run asserted identity checks and recorded audits", (
        ("--n-max", "n_max", "one", int, _INT, 8, "highest degree in the sweep"),
        ("--suite", "suite", "one", _suite, _STRING, "all",
         f"run a single asserted suite (default: all): {', '.join(_SUITES)}"),
        ("--json", "json", "flag", bool, _BOOL, False, "emit the report as JSON"),
        _CONFIG)),
    "audit": (_cmd_audit, "normalization audit table (CSV) and report", (
        ("--n-max", "n_max", "one", int, _INT, 6, "highest degree per (weight, order) cell"),
        ("--tol", "tol", "one", _tolerance, _NUMBER, 1e-6,
         "asserted relative tolerance, quadrature vs derived, in (0, 1)"),
        ("--out", "out", "one", _out_path, _STRING, None, "write the CSV here instead of stdout"),
        _CONFIG)),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        _apply_config(args)
        return _COMMANDS[args.command][0](args)
    except AccuracyError as exc:
        print(f"accuracy failure: {exc}", file=sys.stderr)
        return 3
    except (ParameterError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
