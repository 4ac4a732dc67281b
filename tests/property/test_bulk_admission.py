"""Bulk admission equals per-edge admission, down to iteration order.

``StreamingSketchBuilder.process_batch`` admits a batch by array work on
its columnar store: in bulk when the threshold survivors fit
``edge_budget + eviction_slack``, by the overflow path otherwise.  These
seeded trials feed the same edges to one builder batch by batch and to
another one edge at a time (``add_edge``, a one-row batch each), and
after every batch compare all of the builder's state:
the graph with its ``elements()`` and per-set iteration orders, the ranks
in admission order, the truncation flags, the threshold, the counters, the
space meter and the sequence of evicted elements.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import SketchParams
from repro.core.streaming_sketch import StreamingSketchBuilder
from repro.coverage.bipartite import BipartiteGraph
from repro.errors import InvalidInstanceError
from repro.streaming.batches import EventBatch
from repro.utils.rng import spawn_rng


class _RecordingForget:
    """Wraps a builder's eviction step, which is called with the evicted
    elements in eviction order, and remembers the elements."""

    def __init__(self, forget) -> None:
        self.forget = forget
        self.evicted: list[int] = []

    def __call__(self, evicted):
        self.evicted.extend(evicted)
        return self.forget(evicted)


def _builder(params, *, seed=0, rank_source="hash"):
    builder = StreamingSketchBuilder(params, seed=seed, rank_source=rank_source)
    builder._forget = _RecordingForget(builder._forget)
    return builder


def _count_bulk(builder, monkeypatch):
    """Count the builder's bulk admissions: batches stored with every row
    admitted and no cut."""
    calls = []
    commit = builder._commit

    def counted(batch, admitted, cut):
        if admitted is None and cut is None:
            calls.append(len(batch))
        return commit(batch, admitted, cut)

    monkeypatch.setattr(builder, "_commit", counted)
    return calls


def _state(builder):
    sketch = builder.sketch()
    graph = sketch.graph
    return {
        "edges_by_set": list(graph.edges()),
        "edges_by_element": [column.tolist() for column in graph.to_columns()],
        "elements": list(graph.elements()),
        "num_edges": graph.num_edges,
        "ranks": list(sketch.element_hashes.items()),
        "truncated": sorted(sketch.truncated_elements),
        "threshold": builder.admission_threshold,
        "edges_seen": builder.edges_seen,
        "edges_discarded": builder.edges_discarded,
        "evictions": builder.evictions,
        "space_peak": builder.space.peak,
        "space_current": builder.space.current,
        "evicted": list(builder._forget.evicted),
    }


def _assert_same_after_each_batch(params, batches, *, seed=0, rank_source="hash"):
    bulk = _builder(params, seed=seed, rank_source=rank_source)
    scalar = _builder(params, seed=seed, rank_source=rank_source)
    for set_ids, elements in batches:
        stored = bulk.process_batch(EventBatch(set_ids, elements))
        added = sum(
            scalar.add_edge(set_id, element)
            for set_id, element in zip(set_ids.tolist(), elements.tolist())
        )
        assert _state(bulk) == _state(scalar)
        assert stored == added
    assert bulk.columns().ranks.tolist() == scalar.columns().ranks.tolist()
    return bulk


def _params(num_sets, num_elements, *, edge_budget, degree_cap, slack):
    return SketchParams.explicit(
        num_sets,
        num_elements,
        2,
        0.5,
        edge_budget=edge_budget,
        degree_cap=degree_cap,
        eviction_slack=slack,
    )


def _rows(rng, count, num_sets, num_elements):
    set_ids = rng.integers(0, num_sets, count).astype(np.uint64)
    elements = rng.integers(0, num_elements, count).astype(np.uint64)
    return set_ids, elements


def _random_case(seed):
    """Seeded ``(params, batches, rank_source)`` for the random trials."""
    rng = spawn_rng(seed, "bulk-admission")
    num_sets = int(rng.integers(1, 12))
    # A narrow element range forces shared elements, duplicate pairs and
    # elements that are already tracked when a later batch arrives.
    num_elements = int(rng.integers(1, 60))
    degree_cap = int(rng.integers(1, 5))
    params = _params(
        num_sets,
        num_elements,
        edge_budget=int(rng.integers(1, 80)),
        degree_cap=degree_cap,
        slack=int(rng.integers(0, degree_cap + 1)),
    )
    batches = [
        _rows(rng, int(rng.integers(0, 40)), num_sets, num_elements)
        for _ in range(int(rng.integers(1, 7)))
    ]
    rank_source = "permutation" if seed % 3 == 0 else "hash"
    return params, batches, rank_source


@pytest.mark.parametrize("seed", range(300))
def test_random_batches_match_per_edge_admission(seed):
    params, batches, rank_source = _random_case(seed)
    _assert_same_after_each_batch(params, batches, seed=seed, rank_source=rank_source)


@pytest.mark.parametrize("seed", range(300))
def test_random_batches_match_when_read_only_at_the_end(seed):
    # Nothing reads the sketch between batches, so the rows of one bulk
    # batch are still pending when a later batch probes its elements.
    params, batches, rank_source = _random_case(seed)
    bulk = _builder(params, seed=seed, rank_source=rank_source)
    scalar = _builder(params, seed=seed, rank_source=rank_source)
    for set_ids, elements in batches:
        stored = bulk.process_batch(EventBatch(set_ids, elements))
        added = sum(map(scalar.add_edge, set_ids.tolist(), elements.tolist()))
        assert stored == added
        assert bulk.stored_edges == scalar.stored_edges
    assert _state(bulk) == _state(scalar)


class TestBulkBoundary:
    """The bulk path runs exactly when the survivors fit the edge limit."""

    def _distinct(self, count, num_sets=4, offset=0):
        rows = np.arange(offset, offset + count, dtype=np.uint64)
        return rows % num_sets, rows

    @pytest.mark.parametrize("extra, bulk_calls", [(0, 1), (1, 0)], ids=["limit", "limit+1"])
    def test_survivors_at_the_limit(self, monkeypatch, extra, bulk_calls):
        params = _params(4, 1000, edge_budget=20, degree_cap=3, slack=3)
        limit = params.max_stored_edges
        builder = _builder(params, seed=4)
        calls = _count_bulk(builder, monkeypatch)
        # Hash ranks are below 1.0, the starting threshold: all rows survive.
        builder.process_batch(EventBatch(*self._distinct(limit + extra)))
        assert len(calls) == bulk_calls
        _assert_same_after_each_batch(params, [self._distinct(limit + extra)], seed=4)

    def test_later_batch_overflows_and_evicts(self, monkeypatch):
        params = _params(4, 1000, edge_budget=20, degree_cap=3, slack=3)
        batches = [self._distinct(15), self._distinct(30, offset=15)]
        bulk = _assert_same_after_each_batch(params, batches, seed=8)
        assert bulk.evictions > 0
        assert bulk._forget.evicted  # the eviction order was compared
        builder = _builder(params, seed=8)
        calls = _count_bulk(builder, monkeypatch)
        for set_ids, elements in batches:
            builder.process_batch(EventBatch(set_ids, elements))
        assert calls == [15]


class TestPendingRows:
    def test_batches_admitted_in_bulk_are_inserted_in_one_call(self, monkeypatch):
        params = _params(4, 1000, edge_budget=200, degree_cap=3, slack=3)
        rng = spawn_rng(0, "bulk-pending")
        # Disjoint element ranges: no batch probes an element already tracked,
        # so every batch's rows stay pending until the sketch is read.
        batches = [_rows(rng, 30, 4, 20) for _ in range(4)]
        batches = [(set_ids, elements + 100 * b) for b, (set_ids, elements) in enumerate(batches)]
        bulk, scalar = _builder(params, seed=6), _builder(params, seed=6)
        inserts = []
        by_admission = bulk._by_admission

        def counted():
            inserts.append(bulk.stored_edges)
            return by_admission()

        monkeypatch.setattr(bulk, "_by_admission", counted)
        for set_ids, elements in batches:
            bulk.process_batch(EventBatch(set_ids, elements))
            for set_id, element in zip(set_ids.tolist(), elements.tolist()):
                scalar.add_edge(set_id, element)
        assert inserts == []
        assert bulk.stored_edges == scalar.stored_edges
        assert bulk.sketch().graph == scalar.sketch().graph
        assert len(inserts) == 1
        assert _state(bulk) == _state(scalar)


class TestBulkCases:
    def test_duplicates_inside_a_batch_and_against_stored_edges(self):
        params = _params(3, 50, edge_budget=100, degree_cap=5, slack=5)
        first = (np.array([0, 1, 0, 2], dtype=np.uint64), np.array([7, 7, 7, 9], dtype=np.uint64))
        second = (
            np.array([1, 1, 2, 0, 2, 2], dtype=np.uint64),
            np.array([7, 7, 9, 8, 8, 9], dtype=np.uint64),
        )
        bulk = _assert_same_after_each_batch(params, [first, second], seed=2)
        assert bulk.stored_edges == 5

    def test_degree_cap_one_truncates_tracked_elements(self):
        params = _params(4, 50, edge_budget=100, degree_cap=1, slack=1)
        first = (np.array([0, 1], dtype=np.uint64), np.array([5, 6], dtype=np.uint64))
        # 5 and 6 are tracked at the cap; 7 reaches it inside the batch.
        second = (
            np.array([2, 0, 3, 1, 2, 3], dtype=np.uint64),
            np.array([5, 5, 7, 7, 6, 7], dtype=np.uint64),
        )
        bulk = _assert_same_after_each_batch(params, [first, second], seed=3)
        assert bulk._truncated == {5, 6, 7}
        assert all(bulk.sketch().graph.element_degree(e) == 1 for e in (5, 6, 7))

    def test_permutation_rank_source(self):
        rng = spawn_rng(0, "bulk-permutation")
        params = _params(6, 40, edge_budget=30, degree_cap=3, slack=2)
        batches = [_rows(rng, 25, 6, 40) for _ in range(4)]
        bulk = _assert_same_after_each_batch(params, batches, seed=5, rank_source="permutation")
        # Unsampled elements rank inf and never enter.
        assert all(rank < 1.0 for rank in bulk.sketch().element_hashes.values())


class TestBulkFailurePaths:
    def test_out_of_range_set_id_raises_like_the_scalar_path(self):
        params = _params(3, 50, edge_budget=100, degree_cap=5, slack=5)
        set_ids = np.array([0, 1, 5, 4], dtype=np.uint64)
        elements = np.array([1, 2, 3, 4], dtype=np.uint64)
        scalar = _builder(params, seed=1)
        with pytest.raises(InvalidInstanceError) as expected:
            for set_id, element in zip(set_ids.tolist(), elements.tolist()):
                scalar.add_edge(set_id, element)
        bulk = _builder(params, seed=1)
        with pytest.raises(InvalidInstanceError) as got:
            bulk.process_batch(EventBatch(set_ids, elements))
        assert str(got.value) == str(expected.value) == "set id 5 out of range [0, 3)"
        assert list(bulk.sketch().graph.edges()) == list(scalar.sketch().graph.edges())
