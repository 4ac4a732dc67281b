"""Unit tests for the columnar event-batch path (repro.streaming.batches)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coverage.bipartite import BipartiteGraph
from repro.errors import PassBudgetExceeded
from repro.streaming.batches import EventBatch
from repro.streaming.events import EdgeArrival, SetArrival
from repro.streaming.runner import StreamingRunner
from repro.streaming.space import SpaceMeter
from repro.streaming.stream import STREAM_ORDERS, EdgeStream, SetStream

EDGES = [(0, 3), (1, 3), (0, 5), (2, 1), (1, 4), (2, 2), (0, 1), (3, 3)]


class TestEventBatch:
    def test_edge_batch_columns(self):
        batch = EventBatch.from_edges(EDGES)
        assert batch.kind == "edge"
        assert len(batch) == len(EDGES)
        assert batch.num_edges == len(EDGES)
        assert batch.set_ids.dtype == np.uint64
        assert batch.elements.dtype == np.uint64
        assert [e.as_tuple() for e in batch.iter_events()] == EDGES

    def test_set_batch_csr_layout(self):
        sets = [(2, (5, 1, 7)), (0, ()), (1, (4,))]
        batch = EventBatch.from_sets(sets)
        assert batch.kind == "set"
        assert len(batch) == 3
        assert batch.num_edges == 4
        events = list(batch.iter_events())
        assert events == [
            SetArrival(set_id=2, elements=(5, 1, 7)),
            SetArrival(set_id=0, elements=()),
            SetArrival(set_id=1, elements=(4,)),
        ]

    def test_iter_events_yields_plain_ints(self):
        batch = EventBatch.from_edges(EDGES)
        event = next(batch.iter_events())
        assert isinstance(event, EdgeArrival)
        assert type(event.set_id) is int
        assert type(event.element) is int

    def test_mismatched_edge_columns_rejected(self):
        with pytest.raises(ValueError, match="parallel columns"):
            EventBatch(np.array([1, 2], dtype=np.uint64), np.array([1], dtype=np.uint64))

    def test_bad_offsets_rejected(self):
        ids = np.array([0, 1], dtype=np.uint64)
        elements = np.array([1, 2, 3], dtype=np.uint64)
        with pytest.raises(ValueError, match="offsets"):
            EventBatch(ids, elements, np.array([0, 2], dtype=np.int64))
        with pytest.raises(ValueError, match="offsets"):
            EventBatch(ids, elements, np.array([0, 2, 2], dtype=np.int64))
        with pytest.raises(ValueError, match="non-decreasing"):
            EventBatch(
                np.array([0, 1, 2], dtype=np.uint64),
                elements,
                np.array([0, 2, 1, 3], dtype=np.int64),
            )


class TestEdgeStreamBatches:
    @pytest.mark.parametrize("order", STREAM_ORDERS)
    @pytest.mark.parametrize("batch_size", [1, 3, 100])
    def test_batches_replay_scalar_order(self, order, batch_size):
        scalar = EdgeStream(EDGES, num_sets=4, order=order, seed=9)
        batched = EdgeStream(EDGES, num_sets=4, order=order, seed=9)
        for _ in range(2):  # per-pass shuffles must line up pass by pass
            scalar_events = [e.as_tuple() for e in scalar]
            batched_events = [
                event.as_tuple()
                for batch in batched.iter_batches(batch_size)
                for event in batch.iter_events()
            ]
            assert batched_events == scalar_events

    def test_batch_sizes(self):
        stream = EdgeStream(EDGES, num_sets=4, order="given")
        sizes = [len(batch) for batch in stream.iter_batches(3)]
        assert sizes == [3, 3, 2]

    def test_counts_as_one_pass(self):
        stream = EdgeStream(EDGES, num_sets=4, order="given")
        list(stream.iter_batches(4))
        assert stream.passes_taken == 1

    def test_rejects_nonpositive_batch_size(self):
        stream = EdgeStream(EDGES, num_sets=4)
        with pytest.raises(ValueError, match="batch_size"):
            list(stream.iter_batches(0))

    def test_empty_stream_yields_no_batches(self):
        stream = EdgeStream([], num_sets=2, order="given")
        assert list(stream.iter_batches(8)) == []
        assert stream.passes_taken == 1


class TestSetStreamBatches:
    @pytest.mark.parametrize("order", ["given", "random"])
    @pytest.mark.parametrize("batch_size", [1, 2, 50])
    def test_batches_replay_scalar_order(self, order, batch_size):
        sets = {0: [1, 2, 3], 2: [4], 5: [0, 6]}
        scalar = SetStream(sets, order=order, seed=4)
        batched = SetStream(sets, order=order, seed=4)
        for _ in range(2):
            scalar_events = list(scalar)
            batched_events = [
                event
                for batch in batched.iter_batches(batch_size)
                for event in batch.iter_events()
            ]
            assert batched_events == scalar_events

    def test_counts_as_one_pass(self):
        stream = SetStream([[1, 2], [3]], order="given")
        list(stream.iter_batches(1))
        assert stream.passes_taken == 1


class _WantsPasses:
    """Edge algorithm that asks for a fixed number of passes and stores nothing."""

    name = "wants-passes"
    arrival_model = "edge"

    def __init__(self, passes: int) -> None:
        self.space = SpaceMeter(unit="edges")
        self.passes_left = passes

    def start_pass(self, pass_index: int) -> None:
        pass

    def process(self, event) -> None:
        pass

    def finish_pass(self, pass_index: int) -> None:
        self.passes_left -= 1

    def wants_another_pass(self) -> bool:
        return self.passes_left > 0

    def result(self) -> list[int]:
        return []


class TestBatchPassCounting:
    def test_batch_pass_counts_like_an_event_pass(self):
        stream = EdgeStream(EDGES, num_sets=4, order="given")
        list(stream.iter_batches(4))
        list(stream)
        assert stream.passes_taken == 2

    def test_runner_stops_before_the_pass_over_budget(self):
        stream = EdgeStream(EDGES, num_sets=4, order="given")
        with pytest.raises(PassBudgetExceeded) as excinfo:
            StreamingRunner(BipartiteGraph(4)).run(
                _WantsPasses(3), stream, max_passes=2, batch_size=4
            )
        assert (excinfo.value.used, excinfo.value.budget) == (3, 2)
        # The third pass was refused, not started.
        assert stream.passes_taken == 2
