"""``collect_results.py`` folds lint/obs artifacts into the trajectory."""

from __future__ import annotations

import json

from benchmarks.collect_results import (
    collect_results,
    summarize_chrome_trace,
    summarize_lint_report,
    summarize_metrics_snapshot,
)

from repro import obs
from repro.lint import lint_paths, render_json


def make_report_json(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("import random\nx = random.random()\n", encoding="utf-8")
    return render_json(lint_paths([target]))


def test_lint_report_is_flattened_to_scalars(tmp_path):
    payload = json.loads(make_report_json(tmp_path))
    summary = summarize_lint_report(payload)
    assert summary == {
        "version": 1,
        "findings": 1,
        "files_scanned": 1,
        "suppressed": 0,
        "rules": len(payload["report"]["rules"]),
    }


def test_archived_stats_block_is_dropped_from_the_summary(tmp_path):
    payload = json.loads(make_report_json(tmp_path))
    plain = summarize_lint_report(payload)
    payload["stats"] = {"files_analyzed": 1, "cache_hit_rate": 0.0}
    assert summarize_lint_report(payload) == plain


def test_non_lint_payloads_pass_through_unchanged():
    for payload in ({"speedup": 2.0}, [1, 2], "text", {"report": 3}):
        assert summarize_lint_report(payload) == payload


def test_merge_picks_up_the_lint_report_by_stem(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    (results / "lint-report.json").write_text(
        make_report_json(tmp_path), encoding="utf-8"
    )
    (results / "other_bench.json").write_text('{"speedup": 3.5}', encoding="utf-8")
    (results / "broken.json").write_text("{ nope", encoding="utf-8")
    merged = collect_results(results)
    assert merged["artifact_names"] == ["lint-report", "other_bench"]
    assert merged["artifacts"]["lint-report"]["findings"] == 1
    assert merged["artifacts"]["other_bench"] == {"speedup": 3.5}
    assert len(merged["skipped"]) == 1 and "broken.json" in merged["skipped"][0]


def make_obs_artifacts(tmp_path):
    """Real obs exporter outputs: a small traced run + a metrics snapshot."""
    with obs.tracing() as tracer:
        with obs.span("solve"):
            with obs.span("map.machine", machine=0):
                pass
    trace_path = obs.write_trace(tmp_path / "run_trace.json", tracer.records())
    registry = obs.MetricsRegistry()
    registry.counter("serve.store.hits").inc(7)
    registry.gauge("distributed.resident_sketches").set(3)
    registry.histogram("parallel.execute_seconds").observe(0.5)
    metrics_path = obs.write_metrics(
        tmp_path / "run_metrics.json", registry.snapshot()
    )
    obs.disable()
    return trace_path, metrics_path


def test_chrome_trace_summarized_to_headline_shape(tmp_path):
    trace_path, _ = make_obs_artifacts(tmp_path)
    summary = summarize_chrome_trace(json.loads(trace_path.read_text()))
    assert summary["span_events"] == 2
    assert summary["lanes"] == ["main"]
    assert summary["span_names"] == ["map.machine", "solve"]
    assert summary["extent_micros"] > 0


def test_metrics_snapshot_flattened_to_headline_scalars(tmp_path):
    _, metrics_path = make_obs_artifacts(tmp_path)
    summary = summarize_metrics_snapshot(json.loads(metrics_path.read_text()))
    assert summary["serve.store.hits"] == 7
    assert summary["distributed.resident_sketches"] == 3
    assert summary["distributed.resident_sketches.max"] == 3
    assert summary["parallel.execute_seconds.count"] == 1
    assert summary["parallel.execute_seconds.mean"] == 0.5


def test_non_obs_payloads_pass_through_unchanged():
    for payload in ({"speedup": 2.0}, [1, 2], "text", {}, {"a": {"kind": "x"}}):
        assert summarize_chrome_trace(payload) == payload
        assert summarize_metrics_snapshot(payload) == payload


def test_merge_summarizes_obs_artifacts_by_content(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    trace_path, metrics_path = make_obs_artifacts(tmp_path)
    (results / "distributed_trace.json").write_text(trace_path.read_text())
    (results / "distributed_metrics.json").write_text(metrics_path.read_text())
    merged = collect_results(results)
    assert merged["artifacts"]["distributed_trace"]["span_events"] == 2
    assert merged["artifacts"]["distributed_metrics"]["serve.store.hits"] == 7
