#!/usr/bin/env python3
"""Full verification run: every asserted identity suite over the standard
grid, the quadrature sweeps, and the recorded audits.

Prints the text report of `congeg verify --n-max 12`; optionally writes the
JSON form and the normalization audit table alongside it.  Exits 0 only if
every asserted check passes (recorded audits never gate), and 2, as
`congeg verify` does, when --n-max is below 3.
"""
import argparse
import sys
from pathlib import Path

from congeg.alphapoly import ParameterError
from congeg.quadrature import audit_rows_to_csv
from congeg.report import reports_to_json, reports_to_text, summary
from congeg.verify import ParamGrid, run_asserted_checks, run_recorded_audits


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=12,
                        help="highest degree in the sweep (default: 12)")
    parser.add_argument("--json-out", type=Path, default=None,
                        help="also write the report as JSON here")
    parser.add_argument("--audit-csv", type=Path, default=None,
                        help="also write the normalization audit table here")
    args = parser.parse_args()

    try:
        reports = run_asserted_checks(ParamGrid(n_max=args.n_max)) + run_recorded_audits()
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    audit = next(r for r in reports if r.identity == "normalization-audit")

    print(reports_to_text(reports))
    if args.json_out is not None:
        args.json_out.write_text(reports_to_json(reports) + "\n")
        print(f"\nJSON report: {args.json_out}")
    if args.audit_csv is not None:
        args.audit_csv.write_text(audit_rows_to_csv(audit.table))
        print(f"audit table: {args.audit_csv}")

    line, status = summary(reports)
    print(f"\n{line}")
    return status


if __name__ == "__main__":
    sys.exit(main())
