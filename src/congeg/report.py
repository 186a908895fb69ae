"""Verification reports: the outcome of one identity check over one grid,
its text and JSON forms, and the closing summary that gates a run.

Asserted reports gate the exit status; recorded audits (asserted False)
are findings and never do.
"""
from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .alphapoly import _Record

__all__ = ["SUITE_NAMES", "VerificationReport", "reports_to_json", "reports_to_text",
           "summary"]

# The asserted suites by `verify --suite` name, in report order.  The checks
# that build them are `verify.SUITES`, keyed by these names; the names live
# here so that the CLI's parser can list them without importing the checks.
SUITE_NAMES = ("constructors", "ode", "generating-function", "ladder", "recurrences",
               "endpoints", "special-cases", "orthogonality", "normalization-audit")


class VerificationReport(_Record):
    """Outcome of one identity check over one parameter grid.

    status is "exact-pass" (symbolic zero), "numeric-pass" (residual within
    tolerance, see max_residual) or "fail" (witness pins the first offender).
    `asserted` is False for recorded audits, which never gate a run.
    `table` holds an audit's rows; it is compared but never printed.
    """

    _fields = ("identity", "grid", "status", "max_residual", "witness", "notes", "asserted",
               "table")
    _unprinted = ("table",)

    def __init__(self, identity: str, grid: str, status: str,
                 max_residual: Optional[float] = None, witness: Optional[str] = None,
                 notes: str = "", asserted: bool = True, table: tuple = ()) -> None:
        self.__dict__.update(identity=identity, grid=grid, status=status,
                             max_residual=max_residual, witness=witness, notes=notes,
                             asserted=asserted, table=table)

    @property
    def passed(self) -> bool:
        return self.status in ("exact-pass", "numeric-pass")

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields
                if name not in self._unprinted}

    def to_text(self) -> str:
        lines = [f"identity: {self.identity}", f"  grid: {self.grid}",
                 f"  status: {self.status}"]
        if self.max_residual is not None:
            lines.append(f"  max_residual: {self.max_residual!r}")
        if self.witness:
            lines.append(f"  witness: {self.witness}")
        if self.notes:
            lines.append(f"  notes: {self.notes}")
        if not self.asserted:
            lines.append("  (recorded audit; does not gate the run)")
        return "\n".join(lines)


def reports_to_text(reports: Iterable[VerificationReport]) -> str:
    return "\n\n".join(r.to_text() for r in reports)


def reports_to_json(reports: Iterable[VerificationReport]) -> str:
    import json  # only JSON output needs it
    return json.dumps([r.to_dict() for r in reports], indent=2)


def summary(reports: Sequence[VerificationReport]) -> tuple[str, int]:
    """The closing `asserted: k/m passed; recorded audits: r` line, and the
    exit status: 1 if any asserted report failed, else 0."""
    gating = [r for r in reports if r.asserted]
    failed = sum(1 for r in gating if not r.passed)
    line = (f"asserted: {len(gating) - failed}/{len(gating)} passed; "
            f"recorded audits: {len(reports) - len(gating)}")
    return line, 1 if failed else 0
