"""Failure-injection tests: budget violations surface as the right exceptions.

The space/pass meters are not just bookkeeping — when an experiment *enforces*
a budget (as the lower-bound harness does), algorithms that would exceed it
must fail loudly with the dedicated exception types rather than silently
degrade.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import solve
from repro.core import StreamingKCover, StreamingSketchBuilder
from repro.core.params import SketchParams
from repro.core.setcover import StreamingSetCover
from repro.core.setcover_outliers import StreamingSetCoverOutliers
from repro.distributed.worker import MachineShardJob
from repro.errors import InvalidInstanceError, PassBudgetExceeded, SpaceBudgetExceeded
from repro.streaming import EdgeStream, SetStream, SpaceMeter, StreamingRunner
from repro.streaming.batches import EventBatch

from per_event import add_edges


class TestSpaceBudgetEnforcement:
    def test_builder_with_enforcing_meter_raises_when_budget_too_small(self, planted_kcover):
        params = SketchParams.explicit(
            planted_kcover.n, planted_kcover.m, 4, 0.2, edge_budget=200, degree_cap=10
        )
        # An external meter stricter than the sketch's own limits must trip.
        meter = SpaceMeter(budget=50, enforce=True, unit="edges")
        builder = StreamingSketchBuilder(params, seed=1, space=meter)
        with pytest.raises(SpaceBudgetExceeded) as excinfo:
            add_edges(builder, planted_kcover.graph.edges())
        assert excinfo.value.budget == 50
        assert excinfo.value.used == 51

    def test_builder_with_adequate_budget_does_not_raise(self, planted_kcover):
        params = SketchParams.explicit(
            planted_kcover.n, planted_kcover.m, 4, 0.2, edge_budget=200, degree_cap=10
        )
        meter = SpaceMeter(budget=params.max_stored_edges + 1, enforce=True, unit="edges")
        builder = StreamingSketchBuilder(params, seed=1, space=meter)
        add_edges(builder, planted_kcover.graph.edges())
        assert meter.within_budget

    def test_non_enforcing_meter_records_violations(self, planted_kcover):
        params = SketchParams.explicit(
            planted_kcover.n, planted_kcover.m, 4, 0.2, edge_budget=400, degree_cap=20
        )
        meter = SpaceMeter(budget=100, enforce=False, unit="edges")
        builder = StreamingSketchBuilder(params, seed=2, space=meter)
        add_edges(builder, planted_kcover.graph.edges())
        assert meter.violations > 0
        assert not meter.within_budget


def _feed_batches(builder, graph, batch_size=64):
    """Feed a graph's edges to a builder as columnar batches, in edges() order."""
    edges = EventBatch.from_edges(graph.edges())
    for start in range(0, len(edges), batch_size):
        builder.process_batch(edges.take(np.arange(start, min(start + batch_size, len(edges)))))


class TestSpaceBudgetEnforcementBatched:
    """The batched twins: a meter with a budget keeps per-edge admission, so
    the failure surfaces at exactly the scalar path's usage."""

    def test_builder_with_enforcing_meter_raises_when_budget_too_small(self, planted_kcover):
        params = SketchParams.explicit(
            planted_kcover.n, planted_kcover.m, 4, 0.2, edge_budget=200, degree_cap=10
        )
        meter = SpaceMeter(budget=50, enforce=True, unit="edges")
        builder = StreamingSketchBuilder(params, seed=1, space=meter)
        with pytest.raises(SpaceBudgetExceeded) as excinfo:
            _feed_batches(builder, planted_kcover.graph)
        assert excinfo.value.budget == 50
        assert excinfo.value.used == 51

    def test_builder_with_adequate_budget_does_not_raise(self, planted_kcover):
        params = SketchParams.explicit(
            planted_kcover.n, planted_kcover.m, 4, 0.2, edge_budget=200, degree_cap=10
        )
        meter = SpaceMeter(budget=params.max_stored_edges + 1, enforce=True, unit="edges")
        builder = StreamingSketchBuilder(params, seed=1, space=meter)
        _feed_batches(builder, planted_kcover.graph)
        assert meter.within_budget

    def test_non_enforcing_meter_records_violations(self, planted_kcover):
        params = SketchParams.explicit(
            planted_kcover.n, planted_kcover.m, 4, 0.2, edge_budget=400, degree_cap=20
        )
        scalar_meter = SpaceMeter(budget=100, enforce=False, unit="edges")
        add_edges(
            StreamingSketchBuilder(params, seed=2, space=scalar_meter), planted_kcover.graph.edges()
        )
        meter = SpaceMeter(budget=100, enforce=False, unit="edges")
        _feed_batches(StreamingSketchBuilder(params, seed=2, space=meter), planted_kcover.graph)
        scalar, batched = scalar_meter.as_dict(), meter.as_dict()
        assert batched["violations"] > 0
        assert not batched["within_budget"]
        assert batched == scalar  # one violation per over-budget edge, as per edge


def _builder_states(algorithm):
    """``describe()`` of every sketch builder the algorithm feeds now."""
    if isinstance(algorithm, StreamingSetCover):
        algorithm = algorithm._current_outliers
    if algorithm is None:
        return []
    if isinstance(algorithm, StreamingSketchBuilder):
        return [algorithm.describe()]
    return [builder.describe() for builder in algorithm._builders]


class TestOutOfRangeSetIdBatched:
    """An out-of-range set id in a batch raises what the scalar stream raises."""

    def _same_error(self, make, num_sets, batch=None):
        """Both feeds raise the same error and leave every sketch builder
        with the same counters: rows after the raising one are not seen."""
        if batch is None:
            batch = EventBatch(
                np.array([0, 1, num_sets + 4, num_sets + 2, 2], dtype=np.uint64),
                np.array([3, 4, 5, 6, 7], dtype=np.uint64),
            )
        per_event, batch_fed = make(), make()
        with pytest.raises(InvalidInstanceError) as scalar:
            for event in batch.iter_events():
                per_event.process(event)
        with pytest.raises(InvalidInstanceError) as batched:
            batch_fed.process_batch(batch)
        assert str(batched.value) == str(scalar.value)
        assert _builder_states(batch_fed) == _builder_states(per_event)
        return str(scalar.value)

    def test_sketch_builder(self, planted_kcover):
        params = SketchParams.explicit(
            planted_kcover.n, planted_kcover.m, 4, 0.2, edge_budget=200, degree_cap=10
        )
        self._same_error(lambda: StreamingSketchBuilder(params, seed=1), planted_kcover.n)

    def test_setcover_outliers(self, planted_setcover):
        n, m = planted_setcover.n, planted_setcover.m
        self._same_error(lambda: StreamingSetCoverOutliers(n, m, 0.1, seed=3), n)

    def test_setcover_outliers_when_one_guess_discards_the_bad_row(self, planted_setcover):
        """Guess 0 has a builder of its own whose threshold has dropped: it
        discards the first bad row and keeps the second.  The scalar stream
        fails at the first bad row, through the builder the other guesses
        share, and so must the batch."""
        n, m = planted_setcover.n, planted_setcover.m
        probe = StreamingSetCoverOutliers(n, m, 0.1, seed=3)._builders[0]
        by_rank = sorted(range(100), key=probe._rank)
        kept, dropped = by_rank[0], by_rank[-1]
        threshold = (probe._rank(kept) + probe._rank(dropped)) / 2

        def make():
            algorithm = StreamingSetCoverOutliers(n, m, 0.1, seed=3)
            table = algorithm._table
            first = StreamingSketchBuilder(table.plans[0].params, seed=3, space=algorithm.space)
            first._admission_threshold = threshold
            # Guess 0's own builder is fed first, before the shared one.
            algorithm._builders.insert(0, first)
            algorithm._table = table._replace(
                builder_of=(0,) + tuple(index + 1 for index in table.builder_of[1:])
            )
            assert len(algorithm._builders) == 2
            return algorithm

        batch = EventBatch(
            np.array([n + 4, n + 2], dtype=np.uint64),
            np.array([dropped, kept], dtype=np.uint64),
        )
        assert f"set id {n + 4} " in self._same_error(make, n, batch)

    @pytest.mark.parametrize("phase", ["sketch", "collect"])
    def test_setcover_passes(self, planted_setcover, phase):
        n, m = planted_setcover.n, planted_setcover.m

        def make():
            algorithm = StreamingSetCover(n, m, rounds=1 if phase == "collect" else 3)
            algorithm.start_pass(0)
            return algorithm

        assert make().current_phase()[0] == phase
        self._same_error(make, n)


class TestPassBudgetEnforcement:
    def test_runner_max_passes_zero_like_budget(self, planted_kcover):
        algo = StreamingKCover(planted_kcover.n, planted_kcover.m, k=3, seed=1)
        runner = StreamingRunner(planted_kcover.graph)
        # A single-pass algorithm under a 1-pass budget is fine.
        report = runner.run(
            algo,
            EdgeStream.from_graph(planted_kcover.graph, order="random", seed=1),
            max_passes=1,
        )
        assert report.passes == 1

    def test_multipass_algorithm_rejected_by_small_budget(self, planted_setcover):
        from repro.baselines import DemaineSetCover

        algo = DemaineSetCover(planted_setcover.m, rounds=3)  # needs 4 passes
        runner = StreamingRunner(planted_setcover.graph)
        with pytest.raises(PassBudgetExceeded):
            runner.run(
                algo,
                SetStream.from_graph(planted_setcover.graph, order="random", seed=1),
                max_passes=2,
            )

    def test_runner_reports_exact_violation(self, planted_setcover):
        algo = StreamingSetCover(planted_setcover.n, planted_setcover.m, rounds=2)
        stream = EdgeStream.from_graph(planted_setcover.graph, order="given")
        with pytest.raises(PassBudgetExceeded) as excinfo:
            StreamingRunner(planted_setcover.graph).run(algo, stream, max_passes=1)
        assert excinfo.value.budget == 1
        assert excinfo.value.used == 2
        assert stream.passes_taken == 1


class _MapJobFailure(RuntimeError):
    """The fault one injected map job raises."""


class TestMapJobFailure:
    """A map job that raises inside ``solve(..., "kcover/distributed")``
    surfaces its own exception, is not retried, and leaves nothing behind
    that changes the next solve of the same instance."""

    OPTIONS = {"num_machines": 4, "scale": 0.3}

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_job_exception_surfaces_unretried(self, planted_kcover, monkeypatch, executor):
        expected = solve(
            planted_kcover, "kcover/distributed", seed=5, options=self.OPTIONS, executor=executor
        )
        attempts = []
        run = MachineShardJob.run

        def failing(job):
            attempts.append(job.machine_id)
            if job.machine_id == 2:
                raise _MapJobFailure("machine 2 failed")
            return run(job)

        with monkeypatch.context() as patch:
            patch.setattr(MachineShardJob, "run", failing)
            with pytest.raises(_MapJobFailure, match="machine 2 failed"):
                solve(
                    planted_kcover,
                    "kcover/distributed",
                    seed=5,
                    options=self.OPTIONS,
                    executor=executor,
                )
        assert attempts.count(2) == 1
        again = solve(
            planted_kcover, "kcover/distributed", seed=5, options=self.OPTIONS, executor=executor
        )
        assert (again.solution, again.coverage, again.space_peak, again.extra) == (
            expected.solution,
            expected.coverage,
            expected.space_peak,
            expected.extra,
        )
