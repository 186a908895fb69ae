"""Rewrite the pinned CLI corpus: one file per argv of `CORPUS` under
tests/golden/cli/, holding the argv, the exit code, stdout and stderr of
`congeg.cli.main(argv)` run in process.

    PYTHONPATH=src python scripts/cli_corpus.py

tests/test_cli_corpus.py runs the same argvs and compares each file byte for
byte, so a change that moves any output, exit code or refusal shows as a diff
of these files.  A usage error raises SystemExit(2) out of `main`; its file
says so on the exit line.  Files of argvs no longer in `CORPUS` are removed.
"""
from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

from congeg.report import SUITE_NAMES

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden" / "cli"

CORPUS = (
    ("verify",),
    ("verify", "--json"),
    ("verify", "--n-max", "24"),
    ("verify", "--n-max", "24", "--json"),
    ("verify", "--n-max", "2"),
    ("verify", "--n-max", "-1"),
    *(("verify", "--suite", suite) for suite in SUITE_NAMES),
    *(("verify", "--suite", suite, "--n-max", "24") for suite in SUITE_NAMES),
    ("audit",),
    ("audit", "--n-max", "32"),
    ("audit", "--n-max", "165", "--tol", "0.01"),
    ("audit", "--n-max", "166"),
    ("table", "--n-max", "30", "--lambda", "2/7"),
    ("table", "--n-max", "30", "--lambda", "675/22"),
    ("eval", "--n", "60", "--lambda", "3", "--alpha", "1", "--x", "0.99"),
    ("eval", "--n", "807", "--lambda", "1/2", "--x", "0.5"),
    ("eval", "--n", "808", "--lambda", "1/2", "--x", "0.5"),
    ("eval", "--n", "4000", "--lambda", "3", "--alpha", "1", "--x", "0.5"),
    ("plot-data", "--n", "64", "--samples", "300", "--signed-domain"),
    # refusals: an order, a weight, a point, bad integers and reals, an unknown command
    ("eval", "--n", "3", "--alpha", "0", "--x", "0.5"),
    ("eval", "--n", "3", "--alpha", "3/2", "--x", "0.5"),
    ("table", "--lambda", "-1/2"),
    ("eval", "--n", "3", "--x", "1.5"),
    ("verify", "--n-max", "x"),
    ("eval", "--n", "2.5", "--x", "0.5"),
    ("plot-data", "--samples", "x"),
    ("eval", "--n", "3", "--x", "abc"),
    ("audit", "--tol", "abc"),
    ("frobnicate",),
)


def file_name(argv: tuple[str, ...]) -> str:
    """The corpus file of argv: its words joined by `_`, with every run of
    characters other than letters, digits, `.` and `-` (such as the `/` of a
    fraction) written as `_`."""
    return re.sub(r"[^A-Za-z0-9.-]+", "_", "_".join(argv)) + ".txt"


def render(argv: tuple[str, ...], code: object, out: str, err: str) -> str:
    """A corpus file's text: the argv, the exit code, then stdout and stderr
    verbatim."""
    return f"$ congeg {shlex.join(argv)}\nexit {code}\n--- stdout\n{out}--- stderr\n{err}"


def run(argv: tuple[str, ...]) -> str:
    """`render` of `cli.main(argv)` run in process, stdout and stderr captured."""
    from congeg.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = f"{exc.code} (SystemExit)"
    return render(argv, code, out.getvalue(), err.getvalue())


def main() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    names = {file_name(argv) for argv in CORPUS}
    assert len(names) == len(CORPUS), "two argvs share a file name"
    for path in GOLDEN.glob("*.txt"):
        if path.name not in names:
            path.unlink()
    for argv in CORPUS:
        (GOLDEN / file_name(argv)).write_text(run(argv), encoding="utf-8", newline="")
    print(f"wrote {len(CORPUS)} files to {GOLDEN}")


if __name__ == "__main__":
    main()
