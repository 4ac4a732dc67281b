"""Fast tests of the end-to-end benchmark harness (collected by tier 1).

The workloads run here at toy sizes; the point is the harness's own logic —
the independent checker, span self time, the tail-percentile rule, compare
verdicts — and that every traced rebuild reproduces ``solve()`` exactly.
"""

from __future__ import annotations

import json
import re

import pytest

from benchmarks.e2e import compare, harness, workloads
from benchmarks.e2e.checker import CoverageChecker
from benchmarks.e2e.compare import Side, verdict
from repro.coverage.bipartite import BipartiteGraph
from repro.obs import SpanRecord, Tracer
from repro.utils.rng import spawn_rng

# --------------------------------------------------------------------- #
# toy-size workloads
# --------------------------------------------------------------------- #
TOY_SIZES = {
    "kcover-stream": {"NUM_SETS": 60, "NUM_ELEMENTS": 3000, "K": 5},
    "distributed-merge": {"NUM_SETS": 40, "NUM_ELEMENTS": 2000, "K": 4, "MACHINES": 3},
    "setcover-multipass": {"NUM_SETS": 30, "NUM_ELEMENTS": 300, "COVER": 4},
    "serve-mixed": {
        "NUM_SETS": 40, "NUM_ELEMENTS": 800, "K": 4, "QUERIES": 400, "SEGMENT_S": 0.1,
    },
}


def _toy(name):
    workload = type(workloads.WORKLOADS[name])()
    for attribute, value in TOY_SIZES[name].items():
        setattr(workload, attribute, value)
    return workload


@pytest.fixture(autouse=True)
def _scratch(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "WORK_DIR", tmp_path / "work")


@pytest.mark.parametrize(
    "name", ["kcover-stream", "distributed-merge", "setcover-multipass"]
)
def test_traced_rebuild_equals_solve(name):
    workload = _toy(name)
    state = workload.setup(seed=3)
    try:
        state.checker = CoverageChecker.from_graph(state.instance.graph)
        tracer = Tracer()
        for rep in (1, 2):
            report = workload.solve(state, rep)
            with tracer.span("op", rep=rep):
                answer = workload.rebuild(state, rep, tracer)
            assert workload.same(report, answer) == []
            assert workload.check_output(state, rep, report) == []
    finally:
        workload.close(state)
    names = {record.name for record in tracer.records()}
    assert set(workload.INGEST) & names and set(workload.EXTRACT) & names


def test_serve_drive_answers_match_fresh_solves():
    workload = _toy("serve-mixed")
    state = workload.setup(seed=2)
    state.checker = CoverageChecker.from_graph(state.instance.graph)
    warm = workload.warm_up(state)
    tracer = Tracer()
    queries, throughput = workload.drive(state, 0.2, tracer)
    assert queries and throughput > 0
    outputs = warm + [(q.spec, q.report, q.error) for q in queries]
    assert workloads.check_outputs(workload, state, outputs) == (0, [])
    records = workload.postprocess(tracer.records())
    drives = {r.span_id for r in records if r.name == "serve.drive"}
    served = [r for r in records if r.name in workload.OP_NAMES]
    assert len(drives) == 2 and len(served) == len(queries)
    assert all(r.parent_id in drives for r in served)
    assert {r.lane for r in served} <= {"client-0", "client-1"}


def test_query_mix_is_seeded_and_weighted():
    workload = type(workloads.WORKLOADS["serve-mixed"])()
    mix = workload.query_mix(5)
    assert [(q.k, q.forbidden) for q in mix] == [(q.k, q.forbidden) for q in workload.query_mix(5)]
    assert [q.k for q in mix] != [q.k for q in workload.query_mix(6)]
    weights = [k ** -workload.K_EXPONENT for k in workload.KS]
    for k, weight in zip(workload.KS, weights):
        share = sum(q.k == k for q in mix) / len(mix)
        assert share == pytest.approx(weight / sum(weights), abs=0.02)
    forbidden = [q.forbidden for q in mix[1::2]]
    assert not any(q.forbidden for q in mix[::2])
    assert all(len(set(f)) == workload.FORBIDDEN_SIZE for f in forbidden)
    assert 1 < len(set(forbidden)) <= workload.FORBIDDEN_SETS


@pytest.mark.parametrize("trace", [False, True])
def test_measure_reports_exactly_the_benchmark_metrics(trace, monkeypatch, tmp_path):
    monkeypatch.setitem(harness.WORKLOADS, "kcover-stream", _toy("kcover-stream"))
    result = harness.measure(
        "kcover-stream",
        seed=1,
        seconds=0.01,
        trace=trace,
        trace_out=tmp_path / "trace.json",
        echo=lambda *_: None,
    )
    section = "per_layer" if trace else "end_to_end"
    expected = [metric["name"] for metric in harness.load_spec()[section]]
    line = json.loads(harness.contract_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == expected
    assert all(metric["value"] != 0 for metric in line["metrics"].values())
    if trace:
        assert result["layers"]["trace.attributed_pct"] > 90.0
        events = json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
        assert any(event.get("name") == "sketch.ingest" for event in events)


# --------------------------------------------------------------------- #
# the independent checker
# --------------------------------------------------------------------- #
def _random_graph(rng, num_sets, num_elements, edges):
    graph = BipartiteGraph(num_sets)
    for set_id, element in zip(
        rng.integers(num_sets, size=edges), rng.integers(num_elements, size=edges)
    ):
        graph.add_edge(int(set_id), int(element))
    return graph


def test_checker_coverage_matches_bipartite_graph():
    rng = spawn_rng(7, "e2e-checker-test")
    for trial in range(20):
        graph = _random_graph(rng, 1 + trial % 9, 50, int(rng.integers(1, 200)))
        checker = CoverageChecker.from_graph(graph)
        for _ in range(5):
            size = int(rng.integers(0, graph.num_sets + 1))
            chosen = [int(s) for s in rng.choice(graph.num_sets, size=size, replace=False)]
            assert checker.coverage(chosen) == graph.coverage(chosen)
        assert checker.coverable == graph.num_elements


def test_checker_flags_invalid_answers():
    graph = BipartiteGraph.from_sets([[0, 1, 2], [2, 3], [4], [0]])
    checker = CoverageChecker.from_graph(graph)
    assert checker.check_kcover((0, 1), 4, k=2, reference=5, epsilon=0.2) == []
    assert checker.check_kcover((0, 1), 5, k=2, reference=5, epsilon=0.2)
    assert checker.check_kcover((0, 1, 2), 5, k=2, reference=5, epsilon=0.2)
    assert checker.check_kcover((0, 0), 3, k=2, reference=3, epsilon=0.2)
    assert checker.check_kcover((0, 9), 3, k=2, reference=3, epsilon=0.2)
    assert checker.check_kcover((3,), 1, k=1, reference=5, epsilon=0.2)
    assert checker.check_kcover((0,), 3, k=1, reference=3, epsilon=0.2, forbidden=(0,))
    assert checker.check_setcover((0, 1, 2), 5, cover_size=3, epsilon=0.3) == []
    assert checker.check_setcover((0, 1), 4, cover_size=3, epsilon=0.3)


# --------------------------------------------------------------------- #
# statistics and spans
# --------------------------------------------------------------------- #
def _span(span_id, parent, start, duration, name="s", lane="main"):
    return SpanRecord(span_id, parent, name, start, duration, lane, ())


def test_self_time_subtracts_the_union_of_children():
    root = _span(0, -1, 0.0, 10.0)
    kids = [
        _span(1, 0, 1.0, 3.0),  # [1, 4]
        _span(2, 0, 3.0, 2.0),  # [3, 5] overlaps the first
        _span(3, 0, 8.0, 5.0),  # [8, 13] runs past the parent
        _span(4, 1, 1.5, 1.0),  # grandchild: not a direct child of root
    ]
    children = harness.children_of([root, *kids])
    assert harness.covered_seconds(root, children[0]) == pytest.approx(6.0)
    assert harness.self_seconds(root, children) == pytest.approx(4.0)
    assert harness.self_seconds(kids[0], children) == pytest.approx(2.0)
    assert harness.self_seconds(kids[3], children) == pytest.approx(1.0)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert harness.tail(list(range(99))) is None
    assert harness.tail(list(range(100)))[0] == 90.0
    assert harness.tail(list(range(999)))[0] == 95.0
    q, value = harness.tail(list(range(1000)))
    assert (q, value) == (99.0, 989)
    assert sum(sample > value for sample in range(1000)) == 10
    assert harness.tail(list(range(20_000)))[0] == 99.9


def test_summary_uses_statistics_quartiles():
    summary = harness.summarize([4.0, 1.0, 3.0, 2.0, 5.0], "ms")
    assert (summary["q1"], summary["value"], summary["q3"]) == (1.5, 3.0, 4.5)
    assert summary["samples"] == 5 and "tail" not in summary
    assert harness.quartiles([7.0]) == (7.0, 7.0, 7.0)


# --------------------------------------------------------------------- #
# compare
# --------------------------------------------------------------------- #
def _side(*values, q1=None, q3=None):
    if len(values) == 1:
        value = values[0]
        return Side(value, value if q1 is None else q1, value if q3 is None else q3, values)
    return compare.side([{"value": value} for value in values])


def test_compare_verdicts():
    base = _side(100.0, q1=99.0, q3=101.0)
    assert verdict(base, _side(105.0, q1=104.0, q3=106.0), "lower", 0.1) == "same"
    assert verdict(base, _side(115.0, q1=114.0, q3=116.0), "lower", 0.1) == "worse"
    assert verdict(base, _side(85.0, q1=84.0, q3=86.0), "lower", 0.1) == "better"
    assert verdict(base, _side(95.0, q1=94.0, q3=96.0), "lower", 0.1) == "same"
    assert verdict(base, _side(85.0, q1=84.0, q3=86.0), "higher", 0.1) == "worse"
    runs_a, runs_b = _side(100.0, 101.0, 99.0, 100.0), _side(95.0, 96.0, 94.0, 95.0)
    assert verdict(runs_a, runs_b, "lower", 0.1) == "better"
    assert verdict(base, _side(80.0, q1=60.0, q3=100.0), "lower", 0.1) == "unresolved"
    noisy_a, noisy_b = _side(100.0, 150.0, 90.0, 140.0), _side(50.0, 60.0, 55.0, 52.0)
    assert verdict(noisy_a, noisy_b, "lower", 0.1) == "better"
    assert verdict(noisy_b, noisy_a, "lower", 0.1) == "unresolved"


def test_compare_command_exit_code_and_environment_warning(tmp_path, capsys):
    spec = harness.load_spec()

    def result(path, scale, nproc):
        metrics = {
            metric["name"]: {"value": 10.0 * scale, "q1": 10.0 * scale, "q3": 10.0 * scale}
            for metric in spec["end_to_end"]
        }
        path.write_text(json.dumps({
            "environment": {"nproc": nproc, "seed": 0, "git_sha": "abc"},
            "workloads": {"kcover-stream": {"metrics": metrics}},
        }))
        return str(path)

    a = result(tmp_path / "a.json", 1.0, 2)
    assert compare.main([a, "--", result(tmp_path / "b.json", 1.0, 2)]) == 0
    assert "warning" not in capsys.readouterr().out
    # 1.5x on every metric is worse for the lower-is-better ones.
    assert compare.main([a, "--", result(tmp_path / "c.json", 1.5, 4)]) == 1
    out = capsys.readouterr().out
    assert "environments differ in nproc" in out and "worse" in out
    assert compare.main([a]) == 2


def test_compare_skips_a_crashed_workload():
    spec = harness.load_spec()
    metrics = {m["name"]: {"value": 1.0} for m in spec["end_to_end"]}

    def result(**workloads_run):
        return {"environment": {}, "seconds": 20, "workloads": workloads_run}

    good = {"metrics": metrics}
    crashed = {"correct": False, "crashed": True}
    rows, warnings = compare.compare(
        [result(a=good, b=good)], [result(a=good, b=crashed)], spec
    )
    assert {row["workload"] for row in rows} == {"a"}
    assert any("workload b crashed" in warning for warning in warnings)
    _, warnings = compare.compare(
        [result(a=good)], [{**result(a=good), "seconds": 10}], spec
    )
    assert any("run lengths differ" in warning for warning in warnings)


# --------------------------------------------------------------------- #
# the benchmark definition
# --------------------------------------------------------------------- #
def test_benchmark_definition_matches_the_harness():
    spec = harness.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    metrics = spec["end_to_end"] + spec["per_layer"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    assert all(name.match(m["name"]) for m in metrics)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
