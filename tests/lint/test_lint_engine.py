"""Engine-level tests: suppression parsing, file collection, rule registry."""

from __future__ import annotations

import textwrap

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import SpecError
from repro.lint import (
    Rule,
    RuleMeta,
    collect_files,
    get_rule,
    lint_paths,
    lint_source,
    list_rules,
    register_rule,
    render_json,
    unregister_rule,
)
from repro.lint.engine import parse_suppressions

RNG_VIOLATION = "import numpy as np\nrng = np.random.default_rng()\n"
SILENT_EXCEPT = "try:\n    x = 1\nexcept Exception:\n    pass\n"
SUPPRESSED_RNG = (
    "import numpy as np\n"
    "rng = np.random.default_rng()  # repro-lint: disable=no-raw-rng -- fixture stream\n"
)
FILE_RULES = ["no-raw-rng", "no-silent-except"]

#: Snippet pool for the property test: per-file violations, suppressed
#: violations, a syntax error, and clean code — including a phantom
#: ``__all__`` entry and an out-of-tree import, which no rule flags.
SNIPPETS = (
    "def ok():\n    return 1\n",
    "import random\n\n\ndef roll():\n    return random.random()\n",
    "import random\n# repro-lint: disable=no-raw-rng -- test fixture\nr = random.random()\n",
    "def broken(:\n",
    SILENT_EXCEPT,
    "__all__ = ['ghost']\n",
    "from app.elsewhere import something\n",
)


class TestParseSuppressions:
    def test_trailing_comment_with_justification(self):
        lines = ["x = f()  # repro-lint: disable=no-raw-rng -- fixture only"]
        parsed = parse_suppressions(lines)
        assert set(parsed) == {1}
        suppression = parsed[1]
        assert suppression.rules == frozenset({"no-raw-rng"})
        assert suppression.justification == "fixture only"
        assert not suppression.standalone

    def test_standalone_comment_detected(self):
        parsed = parse_suppressions(["    # repro-lint: disable=no-raw-rng -- why"])
        assert parsed[1].standalone

    def test_comma_separated_rule_list(self):
        parsed = parse_suppressions(
            ["# repro-lint: disable=no-raw-rng, hot-path-hygiene -- both hold"]
        )
        assert parsed[1].rules == frozenset({"no-raw-rng", "hot-path-hygiene"})

    def test_missing_justification_is_none(self):
        # Assembled at runtime so this file's own source stays hygiene-clean.
        line = "x = 1  # repro-lint" + ": disable=no-raw-rng"
        parsed = parse_suppressions([line])
        assert parsed[1].justification is None

    def test_unrelated_comments_ignored(self):
        assert parse_suppressions(["x = 1  # plain comment", "y = 2"]) == {}

    def test_hygiene_rule_is_never_covered(self):
        parsed = parse_suppressions(["x = 1  # repro-lint: disable=all -- blanket"])
        assert parsed[1].covers("no-raw-rng")
        assert not parsed[1].covers("suppression-hygiene")


class TestSuppressionPlacement:
    def test_standalone_comment_covers_next_line(self):
        source = (
            "import numpy as np\n"
            "# repro-lint: disable=no-raw-rng -- fixture stream\n"
            "rng = np.random.default_rng()\n"
        )
        findings, suppressed = lint_source(source, rules=["no-raw-rng"])
        assert findings == []
        assert suppressed == 1

    def test_trailing_comment_does_not_cover_next_line(self):
        source = (
            "import numpy as np\n"
            "x = 1  # repro-lint: disable=no-raw-rng -- wrong line\n"
            "rng = np.random.default_rng()\n"
        )
        findings, _ = lint_source(source, rules=["no-raw-rng"])
        assert [f.rule for f in findings] == ["no-raw-rng"]

    def test_suppression_only_covers_named_rules(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  # repro-lint: disable=hot-path-hygiene -- wrong rule\n"
        )
        findings, suppressed = lint_source(source, rules=["no-raw-rng"])
        assert [f.rule for f in findings] == ["no-raw-rng"]
        assert suppressed == 0

    def test_disable_all_covers_any_suppressable_rule(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  # repro-lint: disable=all -- scratch script\n"
        )
        findings, suppressed = lint_source(source, rules=["no-raw-rng"])
        assert findings == []
        assert suppressed == 1


class TestLintSource:
    def test_syntax_error_becomes_a_finding(self):
        findings, suppressed = lint_source("def broken(:\n", "bad.py")
        assert len(findings) == 1
        assert findings[0].rule == "syntax-error"
        assert findings[0].path == "bad.py"
        assert suppressed == 0

    def test_findings_sorted_by_location(self):
        source = (
            "import random\n"
            "import numpy as np\n"
            "def f():\n"
            "    return np.random.default_rng()\n"
        )
        findings, _ = lint_source(source, rules=["no-raw-rng"])
        assert [f.line for f in findings] == sorted(f.line for f in findings)

    def test_unknown_rule_selection_raises(self):
        with pytest.raises(SpecError, match="no-raw-rgn"):
            lint_source("x = 1\n", rules=["no-raw-rgn"])

    def test_empty_rule_selection_raises(self):
        with pytest.raises(SpecError, match="no lint rules"):
            lint_source("x = 1\n", rules=[])


class TestCollectFiles:
    def test_directories_expand_sorted_and_deduplicated(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("x = 1\n")
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "c.py").write_text("x = 1\n")
        (tmp_path / "notes.txt").write_text("not python\n")
        files = collect_files([tmp_path, tmp_path / "a.py"])
        assert [f.name for f in files] == ["a.py", "b.py", "c.py"]

    def test_explicit_non_python_file_rejected(self, tmp_path):
        target = tmp_path / "notes.txt"
        target.write_text("hello\n")
        with pytest.raises(SpecError, match="not a Python file"):
            collect_files([target])

    def test_missing_path_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            collect_files([tmp_path / "nowhere"])

    def test_overlapping_arguments_yield_each_file_exactly_once(self, tmp_path):
        # Regression: a nested dir named alongside its parent (or a file
        # alongside a dir containing it) must not double-lint anything.
        sub = tmp_path / "pkg" / "sub"
        sub.mkdir(parents=True)
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (sub / "b.py").write_text("x = 1\n")
        files = collect_files(
            [tmp_path / "pkg", sub, sub / "b.py", tmp_path / "pkg" / "a.py"]
        )
        assert [f.name for f in files] == ["a.py", "b.py"]
        assert len(files) == len(set(files))

    def test_argument_order_does_not_change_the_output(self, tmp_path):
        (tmp_path / "z.py").write_text("x = 1\n")
        nested = tmp_path / "deep"
        nested.mkdir()
        (nested / "a.py").write_text("x = 1\n")
        forward = collect_files([tmp_path / "z.py", nested])
        backward = collect_files([nested, tmp_path / "z.py"])
        assert forward == backward


class TestLintPaths:
    def test_report_counts_and_determinism(self, tmp_path):
        (tmp_path / "dirty.py").write_text(RNG_VIOLATION)
        (tmp_path / "clean.py").write_text("x = 1\n")
        first = lint_paths([tmp_path])
        second = lint_paths([tmp_path])
        assert first == second
        assert first.files_scanned == 2
        assert not first.clean
        assert first.exit_code() == 1
        assert first.by_rule() == {"no-raw-rng": 1}
        assert first.rules == tuple(list_rules())

    def test_filtered_run_records_its_rule_subset(self, tmp_path):
        (tmp_path / "dirty.py").write_text(RNG_VIOLATION)
        report = lint_paths([tmp_path], rules=["no-silent-except"])
        assert report.clean
        assert report.rules == ("no-silent-except",)

    @pytest.mark.parametrize("payload", [
        b'x = "\xff"\n',  # not UTF-8, and no coding cookie says otherwise
        b"# -*- coding: bogus -*-\nx = 1\n",  # a cookie naming no codec
    ])
    def test_undecodable_file_is_a_finding_not_an_abort(self, tmp_path, payload):
        (tmp_path / "bad.py").write_bytes(payload)
        (tmp_path / "dirty.py").write_text(RNG_VIOLATION)
        report = lint_paths([tmp_path])
        assert report.files_scanned == 2
        assert report.by_rule() == {"no-raw-rng": 1, "syntax-error": 1}
        assert report.exit_code() == 1
        [broken] = [f for f in report.findings if f.rule == "syntax-error"]
        assert broken.path.endswith("bad.py")
        assert (broken.line, broken.col) == (1, 0)
        assert "decode" in broken.message

    def test_coding_cookie_is_honoured(self, tmp_path):
        (tmp_path / "legacy.py").write_bytes(
            b"# -*- coding: latin-1 -*-\nGREETING = \"caf\xe9\"\n"
        )
        report = lint_paths([tmp_path])
        assert report.clean
        assert report.files_scanned == 1

    @pytest.mark.parametrize("payload", [
        b'\xef\xbb\xbfGREETING = "caf\xc3\xa9"\n',  # UTF-8 with a BOM
        b'GREETING = "caf\xc3\xa9"\n',  # UTF-8, the default without a cookie
        b'# coding: utf-8\nGREETING = "caf\xc3\xa9"\n',  # explicit UTF-8 cookie
    ])
    def test_utf8_sources_decode_and_lint_clean(self, tmp_path, payload):
        (tmp_path / "greeting.py").write_bytes(payload)
        report = lint_paths([tmp_path])
        assert report.clean
        assert report.files_scanned == 1

    def test_syntax_error_keeps_its_location_and_the_rest_is_linted(self, tmp_path):
        (tmp_path / "bad.py").write_text("x = 1\ndef broken(:\n")
        (tmp_path / "dirty.py").write_text(RNG_VIOLATION)
        report = lint_paths([tmp_path])
        assert report.by_rule() == {"no-raw-rng": 1, "syntax-error": 1}
        [broken] = [f for f in report.findings if f.rule == "syntax-error"]
        assert broken.path.endswith("bad.py")
        assert broken.line == 2
        assert "parse" in broken.message

    def test_empty_directory_is_a_clean_report(self, tmp_path):
        report = lint_paths([tmp_path])
        assert report.files_scanned == 0
        assert report.findings == ()
        assert report.suppressed == 0
        assert report.exit_code() == 0

    def test_suppressed_count_sums_across_files(self, tmp_path):
        (tmp_path / "one.py").write_text(SUPPRESSED_RNG)
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "two.py").write_text(SUPPRESSED_RNG)
        report = lint_paths([tmp_path], rules=FILE_RULES)
        assert report.clean
        assert report.suppressed == 2
        assert report.files_scanned == 2

    def test_filtered_run_is_a_subset_of_the_full_run(self, tmp_path):
        (tmp_path / "dirty.py").write_text(RNG_VIOLATION)
        (tmp_path / "silent.py").write_text(SILENT_EXCEPT)
        full = lint_paths([tmp_path])
        filtered = lint_paths([tmp_path], rules=["no-raw-rng"])
        assert set(filtered.findings) < set(full.findings)
        assert filtered.by_rule() == {"no-raw-rng": 1}
        assert full.by_rule()["no-silent-except"] == 1

    def test_tree_findings_match_lint_source_per_file(self, tmp_path):
        sources = {
            "dirty.py": RNG_VIOLATION,
            "silent.py": SILENT_EXCEPT,
            "quiet.py": SUPPRESSED_RNG,
        }
        for name, text in sources.items():
            (tmp_path / name).write_text(text)
        report = lint_paths([tmp_path], rules=FILE_RULES)
        expected = []
        suppressed = 0
        for name in sorted(sources):
            display = (tmp_path / name).as_posix()
            findings, count = lint_source(sources[name], display, rules=FILE_RULES)
            expected.extend(findings)
            suppressed += count
        assert list(report.findings) == sorted(expected)
        assert report.suppressed == suppressed

    def test_argument_slicing_does_not_change_the_report(self, tmp_path):
        (tmp_path / "a.py").write_text(RNG_VIOLATION)
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "b.py").write_text(SILENT_EXCEPT)
        whole = lint_paths([tmp_path])
        sliced = lint_paths([sub, tmp_path, tmp_path / "a.py", sub / "b.py"])
        assert sliced.files_scanned == 2
        assert render_json(sliced) == render_json(whole)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        picks=st.lists(st.sampled_from(range(len(SNIPPETS))), min_size=1, max_size=8)
    )
    def test_report_is_byte_identical_for_arbitrary_trees(self, tmp_path, picks):
        # Distinct per-example directories: hypothesis reuses tmp_path across
        # examples, and the engine must not care about leftovers from others.
        root = tmp_path / ("case-" + "-".join(map(str, picks)))
        files = []
        for index, pick in enumerate(picks):
            target = root / "src" / "app" / f"mod_{index}.py"
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(textwrap.dedent(SNIPPETS[pick]), encoding="utf-8")
            files.append(target)
        by_directory = lint_paths([root])
        by_file = lint_paths(list(reversed(files)))
        assert by_directory.files_scanned == len(picks)
        assert render_json(by_file) == render_json(by_directory)
        assert render_json(lint_paths([root])) == render_json(by_directory)


class TestRuleRegistry:
    def test_rules_register_like_every_other_registry(self):
        class _ProbeRule(Rule):
            meta = RuleMeta(
                name="probe-test-rule",
                summary="test-only probe",
                rationale="registry smoke test",
                example_bad="bad",
                example_good="good",
            )

        register_rule(_ProbeRule)
        try:
            assert get_rule("probe-test-rule") is _ProbeRule
            assert "probe-test-rule" in list_rules()
        finally:
            unregister_rule("probe-test-rule")
        assert "probe-test-rule" not in list_rules()

    def test_the_name_all_is_reserved(self):
        class _AllRule(Rule):
            meta = RuleMeta(
                name="all",
                summary="nope",
                rationale="reserved for blanket suppressions",
                example_bad="bad",
                example_good="good",
            )

        with pytest.raises(SpecError, match="reserved"):
            register_rule(_AllRule)

    def test_rule_without_meta_rejected(self):
        class _Bare(Rule):
            pass

        with pytest.raises(SpecError, match="meta"):
            register_rule(_Bare)

    def test_unknown_rule_lookup_has_did_you_mean_hint(self):
        with pytest.raises(SpecError, match="did you mean.*no-raw-rng"):
            get_rule("no-raw-rgn")
