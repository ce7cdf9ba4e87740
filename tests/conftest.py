"""Shared test plumbing.

Acceptance tests register a one-line verdict per criterion here; the lines
are echoed in a summary section at the end of the pytest run so the pass/fail
status of every criterion is visible even when output capturing is on.
The equivalence tests share their ``(kind, tied)`` cases from here too.
"""

import pytest

from mtconf import ScoreKind

# Each score kind on continuous rows, then on rows snapped to a dyadic grid,
# where band ends, targets and scores repeat exactly across rows.  The
# continuous cases keep the plain kind as their id.
KINDS_AND_TIES = [
    pytest.param(kind, tied, id=f"{kind}-tied" if tied else str(kind))
    for tied in (False, True)
    for kind in ScoreKind
]

_ACCEPTANCE_LINES: list[str] = []


def record_criterion(num: int, name: str, ok: bool, detail: str = "") -> bool:
    """Register one acceptance-criterion verdict; returns ``ok`` unchanged."""
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    _ACCEPTANCE_LINES.append(f"[criterion {num}] {status} {name}{suffix}")
    return ok


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
