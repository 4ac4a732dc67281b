"""CLI tests for ``repro lint``: exit codes 0/1/2 and the output formats."""

from __future__ import annotations

import argparse
import io
import json

import pytest

from repro.cli import build_parser, main
from repro.lint import list_rules, report_from_json

CLEAN_SOURCE = "def identity(x):\n    return x\n"
DIRTY_SOURCE = "import numpy as np\nrng = np.random.default_rng()\n"


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.py"
    path.write_text(CLEAN_SOURCE)
    return path


@pytest.fixture
def dirty_file(tmp_path):
    path = tmp_path / "dirty.py"
    path.write_text(DIRTY_SOURCE)
    return path


def run_cli(*argv):
    out = io.StringIO()
    code = main([str(arg) for arg in argv], out=out)
    return code, out.getvalue()


class TestExitCodes:
    def test_clean_tree_exits_zero(self, clean_file):
        code, output = run_cli("lint", clean_file)
        assert code == 0
        assert "0 findings" in output

    def test_findings_exit_one(self, dirty_file):
        code, output = run_cli("lint", dirty_file)
        assert code == 1
        assert "no-raw-rng" in output

    def test_undecodable_file_exits_one_with_the_rest_reported(self, dirty_file):
        (dirty_file.parent / "bad.py").write_bytes(b'x = "\xff"\n')
        code, output = run_cli("lint", dirty_file.parent)
        assert code == 1
        assert "syntax-error" in output
        assert "no-raw-rng" in output

    def test_no_paths_is_a_usage_error(self):
        code, _ = run_cli("lint")
        assert code == 2

    def test_unknown_rule_is_a_usage_error(self, clean_file):
        code, _ = run_cli("lint", clean_file, "--rules", "no-such-rule")
        assert code == 2

    def test_missing_path_is_a_usage_error(self, tmp_path):
        code, _ = run_cli("lint", tmp_path / "nowhere")
        assert code == 2

    def test_empty_rules_option_is_a_usage_error(self, clean_file):
        code, _ = run_cli("lint", clean_file, "--rules", " , ")
        assert code == 2


class TestRuleSelection:
    def test_rules_subset_runs_only_those(self, dirty_file):
        # The violation is an RNG one; a silent-except-only run is clean.
        code, output = run_cli("lint", dirty_file, "--rules", "no-silent-except")
        assert code == 0
        assert "0 findings" in output

    def test_list_rules_names_every_registered_rule(self):
        code, output = run_cli("lint", "--list-rules")
        assert code == 0
        for name in list_rules():
            assert name in output

    def test_list_rules_json_is_the_metadata_dump(self):
        code, output = run_cli("lint", "--list-rules", "--format", "json")
        assert code == 0
        metas = json.loads(output)
        assert sorted(meta["name"] for meta in metas) == list_rules()
        for meta in metas:
            assert set(meta) == {
                "name", "summary", "rationale", "example_bad", "example_good",
            }


class TestEngineFlags:
    def test_rules_all_selects_everything(self, clean_file):
        code, output = run_cli("lint", clean_file, "--rules", "all", "--format", "json")
        assert code == 0
        report = report_from_json(output)
        assert list(report.rules) == list_rules()

    def test_overlapping_paths_scan_each_file_once(self, dirty_file, clean_file):
        folder = dirty_file.parent
        code, output = run_cli(
            "lint", folder, dirty_file, clean_file, folder, "--format", "json"
        )
        assert code == 1
        report = report_from_json(output)
        assert report.files_scanned == 2
        assert report.by_rule() == {"no-raw-rng": 1}

    def test_lint_takes_only_its_documented_options(self):
        subparsers = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        lint = subparsers.choices["lint"]
        options = {
            option for action in lint._actions for option in action.option_strings
        }
        assert options == {"-h", "--help", "--rules", "--list-rules", "--format", "--output"}


class TestJsonOutput:
    def test_format_json_round_trips(self, dirty_file):
        code, output = run_cli("lint", dirty_file, "--format", "json")
        assert code == 1
        report = report_from_json(output)
        assert report.by_rule() == {"no-raw-rng": 1}
        assert report.files_scanned == 1

    def test_output_file_written_even_in_text_mode(self, dirty_file, tmp_path):
        artifact = tmp_path / "reports" / "lint.json"
        code, output = run_cli("lint", dirty_file, "--output", artifact)
        assert code == 1
        assert "no-raw-rng" in output  # text on stdout
        report = report_from_json(artifact.read_text())
        assert not report.clean
