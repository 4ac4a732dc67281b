"""Text and JSON renderers for :class:`~repro.lint.findings.LintReport`.

The text reporter prints one ``path:line:col: rule: message`` line per
finding (the format editors and CI log scrapers already understand) plus a
one-line summary.  The JSON reporter serializes the whole report losslessly
— :func:`report_from_json` restores an identical :class:`LintReport`, which
is property-tested, so archived CI artifacts can be re-rendered or diffed
offline.
"""

from __future__ import annotations

import json

from repro.errors import SpecError
from repro.lint.findings import LintReport

__all__ = ["render_text", "render_json", "report_from_json", "REPORT_VERSION"]

#: Schema version stamped into JSON reports (bump on incompatible changes).
REPORT_VERSION = 1


def render_text(report: LintReport) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [
        f"{finding.location()}: {finding.rule}: {finding.message}"
        for finding in report.findings
    ]
    counts = report.by_rule()
    breakdown = (
        " (" + ", ".join(f"{rule}: {count}" for rule, count in counts.items()) + ")"
        if counts
        else ""
    )
    noun = "finding" if len(report.findings) == 1 else "findings"
    lines.append(
        f"{len(report.findings)} {noun}{breakdown}, {report.suppressed} suppressed, "
        f"{report.files_scanned} files scanned"
    )
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """Lossless JSON form of the report (sorted keys, stable across runs)."""
    payload = {"version": REPORT_VERSION, "report": report.to_dict()}
    return json.dumps(payload, indent=2, sort_keys=True)


def report_from_json(text: str) -> LintReport:
    """Inverse of :func:`render_json`; malformed input raises :class:`SpecError`.

    Top-level keys other than ``version`` and ``report`` are ignored, so
    archived reports that also carry a ``stats`` block still load.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise SpecError(f"lint report is not valid JSON: {error}") from None
    if not isinstance(payload, dict) or "report" not in payload:
        raise SpecError("lint report JSON must be an object with a 'report' key")
    version = payload.get("version")
    if version != REPORT_VERSION:
        raise SpecError(
            f"unsupported lint report version {version!r}; expected {REPORT_VERSION}"
        )
    return LintReport.from_dict(payload["report"])
