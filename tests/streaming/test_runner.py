"""Unit tests for repro.streaming.runner."""

from __future__ import annotations

import pytest

from repro.errors import PassBudgetExceeded, SpecError
from repro.streaming.events import EdgeArrival
from repro.streaming.runner import StreamingAlgorithm, StreamingReport, StreamingRunner
from repro.streaming.space import SpaceMeter
from repro.streaming.stream import EdgeStream, SetStream

from per_event import PerEvent


class CountingEdgeAlgorithm:
    """Trivial edge-arrival algorithm: remembers which sets it saw, twice."""

    def __init__(self, passes: int = 1) -> None:
        self.name = "counting-edge"
        self.arrival_model = "edge"
        self.space = SpaceMeter(unit="edges")
        self.passes_wanted = passes
        self.passes_done = 0
        self.seen_sets: set[int] = set()
        self.events = 0

    def start_pass(self, pass_index: int) -> None:
        assert pass_index == self.passes_done

    def process(self, event: EdgeArrival) -> None:
        self.events += 1
        if event.set_id not in self.seen_sets:
            self.seen_sets.add(event.set_id)
            self.space.charge(1)

    def finish_pass(self, pass_index: int) -> None:
        self.passes_done += 1

    def wants_another_pass(self) -> bool:
        return self.passes_done < self.passes_wanted

    def result(self) -> list[int]:
        return sorted(self.seen_sets)[:2]


class TestRunner:
    def test_single_pass_run(self, tiny_graph):
        runner = StreamingRunner(tiny_graph)
        algo = CountingEdgeAlgorithm()
        report = runner.run(algo, EdgeStream.from_graph(tiny_graph, order="given"))
        assert isinstance(report, StreamingReport)
        assert report.passes == 1
        assert report.stream_events == tiny_graph.num_edges
        assert report.solution == (0, 1)
        assert report.coverage == tiny_graph.coverage([0, 1])
        assert 0.0 < report.coverage_fraction <= 1.0
        assert report.space_peak == 4

    def test_multi_pass_run(self, tiny_graph):
        runner = StreamingRunner(tiny_graph)
        algo = CountingEdgeAlgorithm(passes=3)
        report = runner.run(algo, EdgeStream.from_graph(tiny_graph, order="given"))
        assert report.passes == 3
        assert report.stream_events == 3 * tiny_graph.num_edges

    def test_model_mismatch_rejected(self, tiny_graph):
        runner = StreamingRunner(tiny_graph)
        algo = CountingEdgeAlgorithm()
        with pytest.raises(SpecError, match="consumes edge arrivals"):
            runner.run(algo, SetStream.from_graph(tiny_graph))

    def test_report_as_dict(self, tiny_graph):
        runner = StreamingRunner(tiny_graph)
        algo = CountingEdgeAlgorithm()
        report = runner.run(
            algo, EdgeStream.from_graph(tiny_graph, order="given"), extra={"note": 1}
        )
        row = report.as_dict()
        assert row["algorithm"] == "counting-edge"
        assert row["note"] == 1
        assert "time.stream" in row

    def test_protocol_runtime_checkable(self):
        assert isinstance(CountingEdgeAlgorithm(), StreamingAlgorithm)

    def test_evaluate_helper(self, tiny_graph):
        runner = StreamingRunner(tiny_graph)
        coverage, fraction = runner.evaluate([0, 2])
        assert coverage == 6
        assert fraction == pytest.approx(1.0)

    def test_solution_deduplicated(self, tiny_graph):
        class DupAlgo(CountingEdgeAlgorithm):
            def result(self) -> list[int]:
                return [0, 0, 1, 1]

        report = StreamingRunner(tiny_graph).run(
            DupAlgo(), EdgeStream.from_graph(tiny_graph, order="given")
        )
        assert report.solution == (0, 1)


class TestPassBudget:
    def test_run_within_budget(self, tiny_graph):
        report = StreamingRunner(tiny_graph).run(
            CountingEdgeAlgorithm(passes=2),
            EdgeStream.from_graph(tiny_graph, order="given"),
            max_passes=2,
        )
        assert report.passes == 2

    def test_exhaustion_raises_pass_budget_exceeded(self, tiny_graph):
        algo = CountingEdgeAlgorithm(passes=3)
        with pytest.raises(PassBudgetExceeded) as excinfo:
            StreamingRunner(tiny_graph).run(
                algo, EdgeStream.from_graph(tiny_graph, order="given"), max_passes=2
            )
        # The error surfaces as soon as the algorithm asks for pass 3.
        assert excinfo.value.used == 3
        assert excinfo.value.budget == 2
        assert algo.passes_done == 2


class BatchCountingAlgorithm(CountingEdgeAlgorithm):
    """Edge algorithm with a native process_batch, for dispatch tests."""

    def __init__(self, passes: int = 1) -> None:
        super().__init__(passes)
        self.batches = 0

    def process_batch(self, batch) -> None:
        self.batches += 1
        for event in batch.iter_events():
            self.process(event)


class TestBatchedDrive:
    def test_shim_unrolls_batches_for_scalar_algorithms(self, tiny_graph):
        scalar = BatchCountingAlgorithm()
        batched = CountingEdgeAlgorithm()
        runner = StreamingRunner(tiny_graph)
        ref = runner.run(
            PerEvent(scalar), EdgeStream.from_graph(tiny_graph, order="given")
        )
        rep = runner.run(
            batched, EdgeStream.from_graph(tiny_graph, order="given"), batch_size=3
        )
        assert rep.solution == ref.solution
        assert rep.stream_events == ref.stream_events
        assert rep.space_peak == ref.space_peak
        assert batched.events == scalar.events
        # The proxy hides process_batch: every event went through process().
        assert scalar.batches == 0

    def test_native_process_batch_preferred(self, tiny_graph):
        algo = BatchCountingAlgorithm()
        report = StreamingRunner(tiny_graph).run(
            algo, EdgeStream.from_graph(tiny_graph, order="given"), batch_size=4
        )
        assert algo.batches == 3  # 9 edges in batches of 4 -> [4, 4, 1]
        assert report.stream_events == tiny_graph.num_edges

    def test_batched_multi_pass_respects_budget(self, tiny_graph):
        algo = BatchCountingAlgorithm(passes=3)
        with pytest.raises(PassBudgetExceeded):
            StreamingRunner(tiny_graph).run(
                algo,
                EdgeStream.from_graph(tiny_graph, order="given"),
                max_passes=2,
                batch_size=2,
            )

    @pytest.mark.parametrize("batch_size", [0, None, True, 1.5])
    def test_invalid_batch_size(self, tiny_graph, batch_size):
        with pytest.raises(SpecError, match="only drive mode"):
            StreamingRunner(tiny_graph).run(
                CountingEdgeAlgorithm(),
                EdgeStream.from_graph(tiny_graph, order="given"),
                batch_size=batch_size,
            )

    def test_default_drive_is_batched(self, tiny_graph):
        algo = BatchCountingAlgorithm()
        report = StreamingRunner(tiny_graph).run(
            algo, EdgeStream.from_graph(tiny_graph, order="given")
        )
        assert algo.batches == 1  # 9 edges fit one default-size batch
        assert report.stream_events == tiny_graph.num_edges


class TestReportDerivedFields:
    def test_events_per_second_derived_from_stream_timing(self, tiny_graph):
        report = StreamingRunner(tiny_graph).run(
            CountingEdgeAlgorithm(), EdgeStream.from_graph(tiny_graph, order="given")
        )
        assert report.events_per_second is not None
        assert report.events_per_second == pytest.approx(
            report.stream_events / report.timings["stream"]
        )
        assert report.as_dict()["events_per_second"] == report.events_per_second

    def test_events_per_second_none_without_stream_timing(self):
        report = StreamingReport(
            algorithm="offline",
            arrival_model="offline",
            solution=(0,),
            coverage=1,
            coverage_fraction=1.0,
            solution_size=1,
            passes=0,
            space_peak=0,
            space_budget=None,
            stream_events=0,
            timings={"solve": 0.5},
        )
        assert report.events_per_second is None
        assert report.as_dict()["events_per_second"] is None

    def test_extra_cannot_overwrite_core_columns(self, tiny_graph):
        report = StreamingRunner(tiny_graph).run(
            CountingEdgeAlgorithm(),
            EdgeStream.from_graph(tiny_graph, order="given"),
            extra={"coverage": -1, "note": "ok"},
        )
        with pytest.raises(ValueError, match="collide"):
            report.as_dict()

    def test_extra_cannot_overwrite_timing_columns(self, tiny_graph):
        report = StreamingRunner(tiny_graph).run(
            CountingEdgeAlgorithm(),
            EdgeStream.from_graph(tiny_graph, order="given"),
            extra={"time.stream": 0.0},
        )
        with pytest.raises(ValueError, match="collide"):
            report.as_dict()
