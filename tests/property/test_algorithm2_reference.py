"""The streaming builder against an independent Algorithm 2 reference.

``_Reference`` is written from the four rules of
:mod:`repro.core.streaming_sketch`'s module docstring alone: a dict of sets
for the stored edges, a ``heapq`` max-heap for the evictions, one edge at a
time.  Seeded random streams go through it and through
:class:`StreamingSketchBuilder` fed in batches of 1, 7 and 4096 edges, and
every piece of builder state must agree: ranks in insertion order,
truncation flags, threshold, counters, space meter, eviction order and the
sketch graph.  Besides the random streams, overflow-heavy ones stress the
builder's array path for batches that evict: elements of degree about one
under a budget far below the stream, evicted elements that arrive again,
quantised ranks that tie, two builders sharing one space meter, and a
planted stream ordered to evict over a thousand elements per batch.
"""

from __future__ import annotations

import heapq

import numpy as np
import pytest

from repro.core.hashing import UniformHash
from repro.core.params import SketchParams
from repro.core.streaming_sketch import StreamingSketchBuilder
from repro.coverage.bipartite import BipartiteGraph
from repro.datasets import planted_kcover_instance
from repro.streaming.batches import EventBatch
from repro.streaming.space import SpaceMeter
from repro.utils.rng import spawn_rng

BATCH_SIZES = (1, 7, 4096)


class _Reference:
    """Algorithm 2, rule by rule, over a dict of sets and a heap."""

    def __init__(self, params, rank, meter=None):
        self.params, self.rank = params, rank
        self.meter = meter if meter is not None else SpaceMeter()
        self.owners: dict[int, set[int]] = {}  # tracked element -> stored sets
        self.ranks: dict[int, float] = {}  # tracked element -> rank (rule 1)
        self.heap: list[tuple[float, int]] = []  # (-rank, element), tracked only
        self.truncated: set[int] = set()
        self.threshold = 1.0
        self.seen = self.discarded = self.stored = self.peak = 0
        self.evicted: list[int] = []

    def add(self, set_id, element):
        self.seen += 1
        rank = self.rank(element)
        owners = self.owners.get(element, set())
        if rank >= self.threshold:  # rule 2
            self.discarded += 1
        elif len(owners) >= self.params.degree_cap:  # rule 3
            self.truncated.add(element)
            self.discarded += 1
        elif set_id in owners:  # a repeated edge
            self.discarded += 1
        else:
            if element not in self.owners:
                self.owners[element], self.ranks[element] = owners, rank
                heapq.heappush(self.heap, (-rank, element))
            owners.add(set_id)
            self.stored += 1
            self.peak = max(self.peak, self.stored)
            self.meter.charge(1)
            # Rule 4; a lone element over the limit stays (nothing to evict for).
            while self.stored > self.params.max_stored_edges and len(self.owners) > 1:
                negated, victim = heapq.heappop(self.heap)
                removed = len(self.owners.pop(victim))
                self.stored -= removed
                self.meter.release(removed)
                del self.ranks[victim]
                self.truncated.discard(victim)
                self.threshold = min(self.threshold, -negated)
                self.evicted.append(victim)

    def graph(self):
        graph = BipartiteGraph(self.params.num_sets)
        for element, owners in self.owners.items():
            for set_id in sorted(owners):
                graph.add_edge(set_id, element)
        return graph


def _record_evictions(builder):
    """The list the builder's eviction step appends the evicted elements
    to, in eviction order."""
    evicted = []
    forget = builder._forget

    def recording(elements):
        evicted.extend(elements)
        return forget(elements)

    builder._forget = recording
    return evicted


def _tracked_ranks(builder):
    """Tracked element → rank, in order of first admission."""
    return builder.sketch().element_hashes


class _QuantisedHash:
    """Uniform ranks rounded down to ``levels`` values, so distinct elements
    tie and evictions fall back to the element order."""

    def __init__(self, seed, levels):
        self.hash, self.levels = UniformHash(seed), levels

    def value(self, element):
        return float(np.floor(self.hash.value(element) * self.levels) / self.levels)

    def value_many(self, elements):
        return np.floor(self.hash.value_many(elements) * self.levels) / self.levels


def _feed(builder, set_ids, elements, batch_size):
    for start in range(0, len(set_ids), batch_size):
        stop = start + batch_size
        builder.process_batch(EventBatch(set_ids[start:stop], elements[start:stop]))


def _assert_matches(builder, reference, evicted):
    sketch = builder.sketch()
    assert list(_tracked_ranks(builder).items()) == list(reference.ranks.items())
    assert builder._truncated == reference.truncated
    assert builder.admission_threshold == reference.threshold
    assert (builder.edges_seen, builder.edges_discarded, builder.evictions) == (
        reference.seen,
        reference.discarded,
        len(reference.evicted),
    )
    assert (builder.space.peak, builder.space.current) == (reference.peak, reference.stored)
    assert evicted == reference.evicted
    assert sketch.graph == reference.graph()
    assert list(sketch.graph.elements()) == list(reference.owners)
    assert list(sketch.element_hashes.items()) == list(reference.ranks.items())
    assert sketch.truncated_elements == frozenset(reference.truncated)


def _random_case(seed):
    """Seeded ``(params, set_ids, elements, rank_source)``.

    A third of the cases have no eviction slack, and another third a degree
    cap above ``edge_budget + eviction_slack`` and few elements, so that one
    element alone can exceed the limit.
    """
    rng = spawn_rng(seed, "algorithm2-reference")
    num_sets = int(rng.integers(1, 12))
    num_elements = int(rng.integers(1, 80))
    edge_budget = int(rng.integers(1, 60))
    degree_cap = int(rng.integers(1, 6))
    slack = int(rng.integers(0, degree_cap + 1))
    if seed % 3 == 1:
        slack = 0
    elif seed % 3 == 2:
        num_sets, num_elements = int(rng.integers(4, 40)), int(rng.integers(1, 5))
        edge_budget = int(rng.integers(1, 8))
        degree_cap = edge_budget + slack + int(rng.integers(1, 10))
    params = SketchParams.explicit(
        num_sets,
        num_elements,
        2,
        0.5,
        edge_budget=edge_budget,
        degree_cap=degree_cap,
        eviction_slack=slack,
    )
    count = int(rng.integers(0, 400))
    set_ids = rng.integers(0, num_sets, count).astype(np.uint64)
    elements = rng.integers(0, num_elements, count).astype(np.uint64)
    rank_source = "permutation" if seed % 2 else "hash"
    return params, set_ids, elements, rank_source


@pytest.mark.parametrize("seed", range(120))
def test_builder_matches_the_reference(seed):
    params, set_ids, elements, rank_source = _random_case(seed)
    if rank_source == "hash":
        rank = UniformHash(seed).value
    else:
        rank = StreamingSketchBuilder(params, seed=seed, rank_source=rank_source)._rank
    reference = _Reference(params, rank)
    for set_id, element in zip(set_ids.tolist(), elements.tolist()):
        reference.add(set_id, element)
    for batch_size in BATCH_SIZES:
        builder = StreamingSketchBuilder(params, seed=seed, rank_source=rank_source)
        evicted = _record_evictions(builder)
        _feed(builder, set_ids, elements, batch_size)
        _assert_matches(builder, reference, evicted)


def _overflow_case(seed, kind):
    """Seeded ``(params, set_ids, elements, hash_fn)`` of one overflow-heavy kind."""
    rng = spawn_rng(seed, f"algorithm2-overflow-{kind}")
    num_sets = int(rng.integers(2, 20))
    degree_cap = int(rng.integers(1, 5))
    slack = int(rng.integers(0, degree_cap + 1))
    edge_budget = int(rng.integers(1, 25))
    count = int(rng.integers(300, 1500))
    num_elements = 1_000_000 if kind == "singletons" else int(rng.integers(20, 400))
    params = SketchParams.explicit(
        num_sets,
        min(num_elements, 100_000),
        2,
        0.5,
        edge_budget=edge_budget,
        degree_cap=degree_cap,
        eviction_slack=slack,
    )
    set_ids = rng.integers(0, num_sets, count).astype(np.uint64)
    elements = rng.integers(0, num_elements, count).astype(np.uint64)
    if kind == "rearrivals":
        # The stream again, backwards: its elements come back after eviction.
        set_ids, elements = np.r_[set_ids, set_ids[::-1]], np.r_[elements, elements[::-1]]
    hash_fn = _QuantisedHash(seed, int(rng.integers(2, 30))) if kind == "ties" else None
    return params, set_ids, elements, hash_fn


@pytest.mark.parametrize("kind", ["singletons", "rearrivals", "ties"])
@pytest.mark.parametrize("seed", range(12))
def test_overflow_heavy_streams_match_the_reference(seed, kind):
    params, set_ids, elements, hash_fn = _overflow_case(seed, kind)
    rank = (hash_fn or UniformHash(seed)).value
    reference = _Reference(params, rank)
    for set_id, element in zip(set_ids.tolist(), elements.tolist()):
        reference.add(set_id, element)
    assert reference.evicted
    if kind == "singletons":
        # Most stored edges are evicted again (all inside the one batch at
        # size 4096).
        assert reference.meter.total_charged > 2 * reference.stored
    for batch_size in BATCH_SIZES:
        builder = StreamingSketchBuilder(params, seed=seed, hash_fn=hash_fn)
        evicted = _record_evictions(builder)
        _feed(builder, set_ids, elements, batch_size)
        _assert_matches(builder, reference, evicted)
        assert builder.space.as_dict() == reference.meter.as_dict()


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("seed", range(6))
def test_builders_sharing_a_meter_match_the_reference(seed, batch_size):
    """Two builders charge one meter, fed alternate batches: the meter's
    peak depends on how their admissions and evictions interleave."""
    params, set_ids, elements, hash_fn = _overflow_case(seed, "rearrivals")
    streams = [(set_ids, elements), (set_ids[::-1].copy(), elements[::-1].copy())]
    meter, expected = SpaceMeter(), SpaceMeter()
    builders = [StreamingSketchBuilder(params, seed=s, space=meter) for s in (seed, seed + 1)]
    references = [_Reference(params, UniformHash(s).value, expected) for s in (seed, seed + 1)]
    for start in range(0, len(set_ids), batch_size):
        stop = start + batch_size
        for builder, reference, (ids, members) in zip(builders, references, streams):
            builder.process_batch(EventBatch(ids[start:stop], members[start:stop]))
            for set_id, element in zip(ids[start:stop].tolist(), members[start:stop].tolist()):
                reference.add(set_id, element)
    assert all(builder.evictions for builder in builders)
    assert meter.as_dict() == expected.as_dict()
    assert meter.peak > max(builder.space.current for builder in builders)


@pytest.mark.parametrize("seed", range(6))
def test_the_last_element_kept_among_tied_ranks_matches_the_reference(seed):
    """A degree cap above the limit lets one element alone exceed it, and
    quantised ranks tie: when the evictions would empty the store, the
    element left is the last in eviction order among the tied ones."""
    rng = spawn_rng(seed, "algorithm2-lone-ties")
    params = SketchParams.explicit(
        30, 12, 2, 0.5, edge_budget=2, degree_cap=10, eviction_slack=0
    )
    set_ids = rng.integers(0, 30, 400).astype(np.uint64)
    elements = rng.integers(0, 12, 400).astype(np.uint64)
    hash_fn = _QuantisedHash(seed, 6)
    reference = _Reference(params, hash_fn.value)
    kept_among_ties = 0
    for set_id, element in zip(set_ids.tolist(), elements.tolist()):
        evicted = len(reference.evicted)
        reference.add(set_id, element)
        if len(reference.owners) == 1:
            rank = next(iter(reference.ranks.values()))
            kept_among_ties += any(
                hash_fn.value(victim) == rank for victim in reference.evicted[evicted:]
            )
    assert kept_among_ties
    for batch_size in BATCH_SIZES:
        builder = StreamingSketchBuilder(params, hash_fn=hash_fn)
        evicted = _record_evictions(builder)
        _feed(builder, set_ids, elements, batch_size)
        _assert_matches(builder, reference, evicted)


def test_a_planted_stream_evicting_thousands_per_batch_matches_the_reference():
    instance = planted_kcover_instance(40, 7_300, k=4, seed=5)
    set_ids, elements = (np.asarray(column) for column in instance.graph.to_set_columns())
    # Descending rank order: every arriving element ranks below the whole
    # store, so each one enters and pushes the top elements out.
    order = np.argsort(-UniformHash(5).value_many(elements), kind="stable")
    set_ids, elements = set_ids[order], elements[order]
    params = SketchParams.explicit(
        40, 7_300, 4, 0.5, edge_budget=60, degree_cap=4, eviction_slack=4
    )
    reference = _Reference(params, UniformHash(5).value)
    for set_id, element in zip(set_ids.tolist(), elements.tolist()):
        reference.add(set_id, element)
    # The whole stream as one batch too: a batch longer than the default
    # batch size is admitted in pieces.
    for batch_size in (*BATCH_SIZES, len(set_ids)):
        builder = StreamingSketchBuilder(params, seed=5)
        evicted = _record_evictions(builder)
        per_batch = []
        for start in range(0, len(set_ids), batch_size):
            before = builder.evictions
            stop = start + batch_size
            builder.process_batch(EventBatch(set_ids[start:stop], elements[start:stop]))
            per_batch.append(builder.evictions - before)
        _assert_matches(builder, reference, evicted)
        if batch_size == 4096:
            assert len(per_batch) >= 2 and min(per_batch) >= 1000


def test_a_batch_drive_stays_columnar(monkeypatch):
    """A batch-only drive that evicts takes each batch whole: it never falls
    back to feeding a batch's rows one at a time."""
    params, set_ids, elements, _ = _overflow_case(3, "rearrivals")

    def forbidden(*args, **kwargs):
        raise AssertionError("the batch drive fed its rows one at a time")

    reference = _Reference(params, UniformHash(3).value)
    for set_id, element in zip(set_ids.tolist(), elements.tolist()):
        reference.add(set_id, element)
    for batch_size in BATCH_SIZES:
        builder = StreamingSketchBuilder(params, seed=3)
        evicted = _record_evictions(builder)
        with monkeypatch.context() as patch:
            patch.setattr(StreamingSketchBuilder, "_rows_one_at_a_time", forbidden)
            _feed(builder, set_ids, elements, batch_size)
            assert builder.evictions > 0
            _assert_matches(builder, reference, evicted)


def test_an_evicting_batch_builds_no_graph(monkeypatch):
    """The stream pass touches no BipartiteGraph: the graph is built once,
    by ``sketch()``."""
    params = SketchParams.explicit(
        4, 1000, 2, 0.5, edge_budget=20, degree_cap=3, eviction_slack=3
    )
    rows = np.arange(200, dtype=np.uint64)
    builder = StreamingSketchBuilder(params, seed=8)

    def forbidden(*args, **kwargs):
        raise AssertionError("the stream pass built a graph")

    with monkeypatch.context() as patch:
        for name in ("__init__", "add_edge", "add_columns"):
            patch.setattr(BipartiteGraph, name, forbidden)
        for name in ("from_columns", "from_element_sets"):
            patch.setattr(BipartiteGraph, name, classmethod(forbidden))
        builder.process_batch(EventBatch(rows % 4, rows))
    assert builder.evictions > 0
    calls = []
    from_element_sets = BipartiteGraph.from_element_sets

    def counted(num_sets, owners):
        calls.append(num_sets)
        return from_element_sets(num_sets, owners)

    monkeypatch.setattr(BipartiteGraph, "from_element_sets", counted)
    assert builder.sketch().graph.num_edges == builder.stored_edges
    assert calls == [4]
