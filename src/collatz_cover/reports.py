"""Machine-readable outcomes for theorem, conjecture, and range audits, and
the one home of every output decision: the formats, the JSON style, the
text/CSV/JSON renderer of every row listing, and the text cells. Functions
here return text; the CLI writes it.

A report fails exactly when it carries counterexamples; checks that were
skipped for a stated reason (valuation deeper than the table, budget
exhaustion) land in ``deferred`` and, absent failures, make the outcome
"deferred" rather than "fail".

Reports carry no timing, so identical runs produce equal reports and
identical bytes. ``json`` and ``csv`` are imported by the functions that
use them: most commands render neither, and start-up is most of the cost
of a short command.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any, NamedTuple

OUTCOME_PASS = "pass"
OUTCOME_FAIL = "fail"
OUTCOME_DEFERRED = "deferred"

FORMATS = ("text", "csv", "json")

MAX_LISTED = 10  # counterexamples, and deferrals, a text report lists


class Counterexample(NamedTuple):
    input: Any
    expected: Any
    actual: Any


class Deferred(NamedTuple):
    input: Any
    reason: str


class VerifyReport(NamedTuple):
    check_name: str
    parameters: dict[str, Any]
    outcome: str
    counterexamples: tuple[Counterexample, ...]
    deferred: tuple[Deferred, ...]
    items_checked: int
    details: dict[str, Any]


def build_report(check_name: str, parameters: dict[str, Any], *,
                 counterexamples=(), deferred=(), items_checked: int = 0,
                 details=None) -> VerifyReport:
    """Assemble a report; the outcome is derived, never passed in."""
    counterexamples = tuple(counterexamples)
    deferred = tuple(deferred)
    if counterexamples:
        outcome = OUTCOME_FAIL
    elif deferred:
        outcome = OUTCOME_DEFERRED
    else:
        outcome = OUTCOME_PASS
    return VerifyReport(check_name, dict(parameters), outcome, counterexamples,
                        deferred, items_checked, dict(details or {}))


def json_text(obj: Any) -> str:
    """The JSON style of every output: two-space indent, a final newline."""
    import json
    return json.dumps(obj, indent=2) + "\n"


def report_to_json(report: VerifyReport) -> str:
    """Canonical JSON rendering; byte-identical for identical content."""
    obj: dict[str, Any] = {
        "check_name": report.check_name,
        "params": report.parameters,
        "outcome": report.outcome,
        "counterexamples": [
            {"input": c.input, "expected": c.expected, "actual": c.actual}
            for c in report.counterexamples
        ],
        "deferred": [{"input": d.input, "reason": d.reason} for d in report.deferred],
        "items_checked": report.items_checked,
        "details": report.details,
    }
    return json_text(obj)


def report_to_text(report: VerifyReport) -> str:
    """Human-readable summary, deterministic (no timing on this surface)."""
    lines = [
        f"check: {report.check_name}",
        "params: " + " ".join(f"{k}={v}" for k, v in report.parameters.items()),
        f"outcome: {report.outcome}",
        f"items_checked: {report.items_checked}",
        f"counterexamples: {len(report.counterexamples)}",
    ]
    for c in report.counterexamples[:MAX_LISTED]:
        lines.append(f"  counterexample {c.input}: expected {c.expected}, got {c.actual}")
    if len(report.counterexamples) > MAX_LISTED:
        lines.append(f"  (+{len(report.counterexamples) - MAX_LISTED} more)")
    lines.append(f"deferred: {len(report.deferred)}")
    for d in report.deferred[:MAX_LISTED]:
        lines.append(f"  deferred {d.input}: {d.reason}")
    if len(report.deferred) > MAX_LISTED:
        lines.append(f"  (+{len(report.deferred) - MAX_LISTED} more)")
    for key in report.details:
        lines.append(f"{key}: {report.details[key]}")
    return "\n".join(lines) + "\n"


def rows_to_csv(rows: list[dict]) -> str:
    """CSV under a header of the first row's keys; None becomes an empty cell."""
    import csv
    import io
    buf = io.StringIO()
    writer = csv.DictWriter(buf, list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def render_rows(rows: list[dict], fmt: str,
                text: Callable[[list[dict]], str]) -> str:
    """One listing in one of FORMATS; ``text(rows)`` supplies the text form."""
    if fmt == "csv":
        return rows_to_csv(rows)
    if fmt == "json":
        return json_text(rows)
    if fmt == "text":
        return text(rows)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def aligned(rows: list[tuple[str, ...]]) -> str:
    """Rows of string cells as left-justified columns two spaces apart, with
    the trailing blanks of each line stripped."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                   + "\n" for row in rows)


def format_progression(modulus: int, offset: int, starred: bool = False) -> str:
    return f"{modulus}n + {offset}" + ("*" if starred else "")
