#!/usr/bin/env python3
"""Full verification run: every asserted identity suite over the standard
grid, the quadrature sweeps, and the recorded audits.

Prints the text report; optionally writes the JSON form and the
normalization audit table alongside it.  Exits 0 only if every asserted
check passes (recorded audits never gate).
"""
import argparse
import sys
from pathlib import Path

from congeg.cli import SUITES
from congeg.quadrature import audit_rows_to_csv
from congeg.verify import (ParamGrid, reports_to_json, reports_to_text,
                           run_recorded_audits)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=12,
                        help="highest degree in the sweep (default: 12)")
    parser.add_argument("--json-out", type=Path, default=None,
                        help="also write the report as JSON here")
    parser.add_argument("--audit-csv", type=Path, default=None,
                        help="also write the normalization audit table here")
    args = parser.parse_args()

    grid = ParamGrid(n_max=args.n_max)
    by_suite = {name: build(grid, False) for name, build in SUITES.items()}
    audit = by_suite["normalization-audit"]
    reports = list(by_suite.values()) + run_recorded_audits()

    print(reports_to_text(reports))
    if args.json_out is not None:
        args.json_out.write_text(reports_to_json(reports) + "\n")
        print(f"\nJSON report: {args.json_out}")
    if args.audit_csv is not None:
        args.audit_csv.write_text(audit_rows_to_csv(audit.table))
        print(f"audit table: {args.audit_csv}")

    gating = [r for r in reports if r.asserted]
    failed = [r for r in gating if not r.passed]
    print(f"\nasserted: {len(gating) - len(failed)}/{len(gating)} passed; "
          f"recorded audits: {sum(1 for r in reports if not r.asserted)}")
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
