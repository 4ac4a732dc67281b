"""Per-rule tests: each rule catches its planted violation, passes the
compliant version, and honours a justified inline suppression."""

from __future__ import annotations

import pytest

import lint_fixtures as fx
from repro.lint import lint_source

#: A path that triggers none of the path-scoped special cases.
NEUTRAL_PATH = "src/repro/example.py"


def run_rule(source: str, rule: str, display_path: str = NEUTRAL_PATH):
    """Lint one snippet with one rule; returns (findings, suppressed)."""
    return lint_source(source, display_path, rules=[rule])


def assert_flags(source: str, rule: str, display_path: str = NEUTRAL_PATH, count: int = 1):
    findings, _ = run_rule(source, rule, display_path)
    assert [f.rule for f in findings] == [rule] * count, findings
    return findings


def assert_clean(source: str, rule: str, display_path: str = NEUTRAL_PATH):
    findings, _ = run_rule(source, rule, display_path)
    assert findings == [], findings


def assert_suppressed(source: str, rule: str, display_path: str = NEUTRAL_PATH):
    findings, suppressed = run_rule(source, rule, display_path)
    assert findings == [], findings
    assert suppressed == 1


class TestNoRawRng:
    @pytest.mark.parametrize(
        "source, count",
        [
            (fx.BAD_RAW_RNG, 1),
            (fx.BAD_RAW_RNG_STDLIB, 1),
            (fx.BAD_RAW_RNG_TIME_SEED, 1),
            # Both the import line and the bare default_rng() call flag.
            (fx.BAD_RAW_RNG_IMPORT_FROM, 2),
        ],
        ids=["numpy-constructor", "stdlib-import", "time-seed", "import-from"],
    )
    def test_bad_variants_flagged(self, source, count):
        assert_flags(source, "no-raw-rng", count=count)

    def test_good_snippet_clean(self):
        assert_clean(fx.GOOD_RAW_RNG, "no-raw-rng")

    def test_rng_home_module_is_exempt(self):
        # repro/utils/rng.py is the one module allowed to build raw streams.
        assert_clean(fx.BAD_RAW_RNG, "no-raw-rng", "src/repro/utils/rng.py")

    def test_suppression_honoured(self):
        assert_suppressed(fx.SUPPRESSED_RAW_RNG, "no-raw-rng")

    def test_finding_message_points_at_spawn_rng(self):
        (finding,) = assert_flags(fx.BAD_RAW_RNG, "no-raw-rng")
        assert "spawn_rng" in finding.message


class TestRawTiming:
    @pytest.mark.parametrize(
        "source, count",
        [
            (fx.BAD_RAW_TIMING, 2),
            (fx.BAD_RAW_TIMING_WALL, 1),
            (fx.BAD_RAW_TIMING_IMPORT_FROM, 1),
        ],
        ids=["perf-counter", "wall-time", "import-from"],
    )
    def test_bad_variants_flagged(self, source, count):
        assert_flags(source, "raw-timing", count=count)

    def test_clock_indirection_clean(self):
        # time.sleep stays legal; only clock *reads* must go through obs.
        assert_clean(fx.GOOD_RAW_TIMING, "raw-timing")

    @pytest.mark.parametrize(
        "display_path",
        ["benchmarks/bench_example.py", "tests/streaming/test_example.py"],
        ids=["benchmarks", "tests"],
    )
    def test_non_library_code_exempt(self, display_path):
        # Benchmarks and tests measure the real world on purpose.
        assert_clean(fx.BAD_RAW_TIMING, "raw-timing", display_path)

    def test_suppression_honoured(self):
        assert_suppressed(fx.SUPPRESSED_RAW_TIMING, "raw-timing")

    def test_finding_message_points_at_clock(self):
        (finding,) = assert_flags(fx.BAD_RAW_TIMING_WALL, "raw-timing")
        assert "repro.obs.clock" in finding.message


class TestHotPathHygiene:
    def test_whole_column_tolist_flagged(self):
        assert_flags(fx.BAD_HOT_PATH_TOLIST, "hot-path-hygiene")

    def test_per_row_loop_flagged(self):
        assert_flags(fx.BAD_HOT_PATH_LOOP, "hot-path-hygiene")

    def test_filtered_selection_allowed(self):
        assert_clean(fx.GOOD_HOT_PATH, "hot-path-hygiene")

    def test_rule_scoped_to_hot_functions(self):
        assert_clean(fx.GOOD_HOT_PATH_OUTSIDE, "hot-path-hygiene")

    def test_kernel_modules_are_hot_everywhere(self):
        # In the packed-kernel module even top-level helpers are hot path.
        assert_flags(
            fx.GOOD_HOT_PATH_OUTSIDE,
            "hot-path-hygiene",
            "src/repro/coverage/bitset.py",
        )

    def test_suppression_honoured(self):
        assert_suppressed(fx.SUPPRESSED_HOT_PATH, "hot-path-hygiene")


class TestHotPathHygieneReduce:
    """The distributed reduce is hot end to end: no graph round trip."""

    REDUCE = "src/repro/distributed/coordinator.py"

    @pytest.mark.parametrize(
        "source",
        [
            fx.BAD_REDUCE_ADD_EDGE,
            fx.BAD_REDUCE_EDGES_LOOP,
            fx.BAD_REDUCE_EDGES_COMPREHENSION,
        ],
        ids=["add-edge", "edges-loop", "edges-comprehension"],
    )
    def test_graph_round_trip_flagged(self, source):
        assert_flags(source, "hot-path-hygiene", self.REDUCE)

    @pytest.mark.parametrize(
        "display_path",
        ["src/repro/core/sketch_columns.py", "src/repro/coverage/bitset.py"],
        ids=["sketch-columns", "bitset"],
    )
    def test_every_hot_module_flags_add_edge(self, display_path):
        assert_flags(fx.BAD_REDUCE_ADD_EDGE, "hot-path-hygiene", display_path)

    def test_add_edge_in_process_batch_flagged(self):
        source = fx.clean(
            """
            class Algo:
                def process_batch(self, batch):
                    for set_id, element in self._survivors(batch):
                        self._graph.add_edge(set_id, element)
            """
        )
        assert_flags(source, "hot-path-hygiene")

    def test_bulk_build_clean(self):
        assert_clean(fx.GOOD_REDUCE, "hot-path-hygiene", self.REDUCE)

    def test_graph_code_outside_hot_scope_clean(self):
        # Building graphs edge by edge is the normal API everywhere else.
        assert_clean(fx.BAD_REDUCE_ADD_EDGE, "hot-path-hygiene")
        assert_clean(fx.BAD_REDUCE_EDGES_LOOP, "hot-path-hygiene")

    def test_suppression_honoured(self):
        assert_suppressed(fx.SUPPRESSED_REDUCE_ADD_EDGE, "hot-path-hygiene", self.REDUCE)


class TestNoSilentExcept:
    def test_bare_except_flagged(self):
        (finding,) = assert_flags(fx.BAD_SILENT_BARE, "no-silent-except")
        assert "KeyboardInterrupt" in finding.message

    def test_except_pass_flagged(self):
        (finding,) = assert_flags(fx.BAD_SILENT_PASS, "no-silent-except")
        assert "OSError" in finding.message

    def test_handler_with_fallback_clean(self):
        assert_clean(fx.GOOD_SILENT, "no-silent-except")

    def test_suppression_honoured(self):
        assert_suppressed(fx.SUPPRESSED_SILENT, "no-silent-except")


class TestSuppressionHygiene:
    def run_all(self, source: str):
        return lint_source(source, NEUTRAL_PATH)

    def test_unjustified_suppression_flagged(self):
        findings, suppressed = self.run_all(fx.BAD_SUPPRESSION_NO_REASON)
        assert [f.rule for f in findings] == ["suppression-hygiene"]
        assert "justification" in findings[0].message
        # The unjustified comment still silences its target rule...
        assert suppressed == 1
        # ...but the hygiene finding keeps the report non-clean.

    def test_unknown_rule_name_flagged(self):
        findings, _ = self.run_all(fx.BAD_SUPPRESSION_UNKNOWN_RULE)
        assert [f.rule for f in findings] == ["suppression-hygiene"]
        assert "no-raw-rgn" in findings[0].message

    def test_justified_suppression_clean(self):
        findings, suppressed = self.run_all(fx.GOOD_SUPPRESSION)
        assert findings == []
        assert suppressed == 1

    def test_hygiene_findings_cannot_be_suppressed(self):
        # Even disable=all cannot silence the rule that audits suppressions.
        # (Assembled at runtime: a literal unjustified directive here would
        # trip the tree-wide self-lint on this very file.)
        source = "x = compute()  # repro-lint" + ": disable=all\n"
        findings, suppressed = self.run_all(source)
        assert [f.rule for f in findings] == ["suppression-hygiene"]
        assert suppressed == 0


class TestRuleMetadata:
    def test_every_rule_has_complete_metadata(self):
        from repro.lint import iter_rule_metas

        metas = iter_rule_metas()
        assert len(metas) >= 5
        for meta in metas:
            assert meta.name and " " not in meta.name
            assert meta.summary and meta.rationale
            assert meta.example_bad and meta.example_good

    def test_meta_round_trips_through_dict(self):
        from repro.lint import RuleMeta, iter_rule_metas

        for meta in iter_rule_metas():
            assert RuleMeta.from_dict(meta.to_dict()) == meta
