"""Reporter tests: text rendering and the lossless JSON round-trip."""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SpecError
from repro.lint import Finding, LintReport, render_json, render_text, report_from_json
from repro.lint.reporters import REPORT_VERSION

nonempty_text = st.text(min_size=1, max_size=40)

findings = st.builds(
    Finding,
    path=nonempty_text,
    line=st.integers(min_value=1, max_value=10_000),
    col=st.integers(min_value=0, max_value=200),
    rule=nonempty_text,
    message=nonempty_text,
)

reports = st.builds(
    LintReport,
    findings=st.tuples() | st.lists(findings, max_size=6).map(tuple),
    files_scanned=st.integers(min_value=0, max_value=5_000),
    suppressed=st.integers(min_value=0, max_value=500),
    rules=st.lists(nonempty_text, max_size=8).map(tuple),
)


class TestJsonRoundTrip:
    @given(report=reports)
    def test_render_then_parse_is_lossless(self, report):
        assert report_from_json(render_json(report)) == report

    @given(report=reports)
    def test_json_output_is_valid_versioned_json(self, report):
        payload = json.loads(render_json(report))
        assert payload["version"] == REPORT_VERSION
        assert set(payload) == {"version", "report"}

    def test_rendering_is_deterministic(self):
        report = LintReport(
            findings=(Finding("a.py", 3, 0, "no-raw-rng", "boom"),),
            files_scanned=1,
            rules=("no-raw-rng",),
        )
        assert render_json(report) == render_json(report)


    def test_archived_report_with_a_stats_block_still_loads(self):
        report = LintReport(
            findings=(Finding("a.py", 3, 0, "no-raw-rng", "boom"),),
            files_scanned=4,
            suppressed=1,
            rules=("no-raw-rng",),
        )
        payload = json.loads(render_json(report))
        payload["stats"] = {"files_analyzed": 4, "cache_hit_rate": 0.5}
        assert report_from_json(json.dumps(payload)) == report


class TestReportFromJsonErrors:
    def test_invalid_json_rejected(self):
        with pytest.raises(SpecError, match="not valid JSON"):
            report_from_json("{nope")

    def test_missing_report_key_rejected(self):
        with pytest.raises(SpecError, match="'report' key"):
            report_from_json(json.dumps({"version": REPORT_VERSION}))

    def test_wrong_version_rejected(self):
        with pytest.raises(SpecError, match="version"):
            report_from_json(json.dumps({"version": 999, "report": {}}))

    def test_unknown_report_field_rejected(self):
        payload = {"version": REPORT_VERSION, "report": {"bogus": 1}}
        with pytest.raises(SpecError, match="bogus"):
            report_from_json(json.dumps(payload))

    def test_unknown_finding_field_rejected(self):
        finding = Finding("a.py", 1, 0, "r", "m").to_dict()
        finding["extra"] = True
        payload = {"version": REPORT_VERSION, "report": {"findings": [finding]}}
        with pytest.raises(SpecError, match="extra"):
            report_from_json(json.dumps(payload))


class TestTextReport:
    def test_one_line_per_finding_plus_summary(self):
        report = LintReport(
            findings=(
                Finding("a.py", 3, 4, "no-raw-rng", "raw stream"),
                Finding("b.py", 9, 0, "no-silent-except", "swallowed"),
            ),
            files_scanned=12,
            suppressed=2,
            rules=("no-raw-rng", "no-silent-except"),
        )
        lines = render_text(report).splitlines()
        assert lines[0] == "a.py:3:4: no-raw-rng: raw stream"
        assert lines[1] == "b.py:9:0: no-silent-except: swallowed"
        assert lines[2] == (
            "2 findings (no-raw-rng: 1, no-silent-except: 1), "
            "2 suppressed, 12 files scanned"
        )

    def test_clean_report_renders_summary_only(self):
        report = LintReport(files_scanned=5, rules=("no-raw-rng",))
        assert render_text(report) == "0 findings, 0 suppressed, 5 files scanned"

    def test_singular_noun_for_one_finding(self):
        report = LintReport(
            findings=(Finding("a.py", 1, 0, "no-raw-rng", "x"),), files_scanned=1
        )
        assert "1 finding (no-raw-rng: 1)" in render_text(report)
