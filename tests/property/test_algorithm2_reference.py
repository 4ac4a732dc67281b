"""The streaming builder against an independent Algorithm 2 reference.

``_Reference`` is written from the four rules of
:mod:`repro.core.streaming_sketch`'s module docstring alone: a dict of sets
for the stored edges, a ``heapq`` max-heap for the evictions, one edge at a
time.  Seeded random streams go through it and through
:class:`StreamingSketchBuilder` fed in batches of 1, 7 and 4096 edges, and
every piece of builder state must agree: ranks in insertion order,
truncation flags, threshold, counters, space meter, eviction order and the
sketch graph.
"""

from __future__ import annotations

import heapq

import numpy as np
import pytest

from repro.core.hashing import UniformHash
from repro.core.params import SketchParams
from repro.core.streaming_sketch import StreamingSketchBuilder
from repro.coverage.bipartite import BipartiteGraph
from repro.streaming.batches import EventBatch
from repro.utils.rng import spawn_rng

BATCH_SIZES = (1, 7, 4096)


class _Reference:
    """Algorithm 2, rule by rule, over a dict of sets and a heap."""

    def __init__(self, params, rank):
        self.params, self.rank = params, rank
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
            # Rule 4; a lone element over the limit stays (nothing to evict for).
            while self.stored > self.params.max_stored_edges and len(self.owners) > 1:
                negated, victim = heapq.heappop(self.heap)
                self.stored -= len(self.owners.pop(victim))
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


class _RecordingOwners(dict):
    """A builder's element → owners store that records its evictions."""

    def __init__(self) -> None:
        super().__init__()
        self.evicted: list[int] = []

    def pop(self, element, *default):
        self.evicted.append(element)
        return super().pop(element, *default)


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
        builder._owners = _RecordingOwners()
        for start in range(0, len(set_ids), batch_size):
            stop = start + batch_size
            builder.process_batch(EventBatch(set_ids[start:stop], elements[start:stop]))
        sketch = builder.sketch()
        assert list(builder._ranks.items()) == list(reference.ranks.items())
        assert builder._truncated == reference.truncated
        assert builder.admission_threshold == reference.threshold
        assert (builder.edges_seen, builder.edges_discarded, builder.evictions) == (
            reference.seen,
            reference.discarded,
            len(reference.evicted),
        )
        assert (builder.space.peak, builder.space.current) == (reference.peak, reference.stored)
        assert builder._owners.evicted == reference.evicted
        assert sketch.graph == reference.graph()
        assert list(sketch.graph.elements()) == list(reference.owners)
        assert list(sketch.element_hashes.items()) == list(reference.ranks.items())
        assert sketch.truncated_elements == frozenset(reference.truncated)


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
