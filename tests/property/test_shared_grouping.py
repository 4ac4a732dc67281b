"""One batch grouping shared by several sketch builders.

Algorithm 5's guesses and an ensemble's replicas differ only in their hash
and budgets, so each batch is grouped by element and pair once
(:class:`BatchGrouping`) and every builder ranks only the batch's distinct
elements.  The threshold filter keeps or drops an element's rows together,
which is what lets one grouping serve every builder.  These seeded trials
feed the same batches to a group of builders three ways — through one shared
grouping, through each builder's own ``process_batch``, and one edge at a
time to the independent Algorithm 2 reference — and compare every builder's
``columns()``, ``describe()``, ``sketch()`` and the shared space meter after
every batch.  The builders differ in rank source, hash seed, edge budget and
degree cap; one hash family quantises its ranks so that elements tie.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ensemble import SketchEnsemble
from repro.core.hashing import UniformHash
from repro.core.params import SketchParams
from repro.core.streaming_sketch import BatchGrouping, StreamingSketchBuilder
from repro.datasets import planted_kcover_instance
from repro.errors import InvalidInstanceError
from repro.streaming.batches import EventBatch
from repro.streaming.space import SpaceMeter
from repro.streaming.stream import EdgeStream
from repro.utils.rng import spawn_rng

from per_event import add_edges
from test_algorithm2_reference import _QuantisedHash, _Reference

NUM_SETS, NUM_ELEMENTS = 12, 150

#: (rank source, hash: None / "uniform" / "ties", edge budget, degree cap, slack)
#: per builder; the small budgets evict within a few batches.
GROUPS = {
    "fit": [
        ("hash", "uniform", 400, 3, 3),
        ("hash", "uniform", 500, 5, 0),
        ("permutation", None, 450, 4, 2),
    ],
    "evict": [
        ("hash", "uniform", 20, 2, 2),
        ("hash", "ties", 35, 4, 1),
        ("permutation", None, 30, 3, 3),
        ("hash", "uniform", 60, 1, 0),
    ],
    "ties": [
        ("hash", "ties", 25, 3, 3),
        ("hash", "ties", 80, 2, 0),
        ("hash", "ties", 400, 5, 5),
    ],
}


def _make(spec, seed, meter):
    """The builder of one ``GROUPS`` entry, charging ``meter``."""
    rank_source, hashing, edge_budget, degree_cap, slack = spec
    params = SketchParams.explicit(
        NUM_SETS,
        NUM_ELEMENTS,
        2,
        0.5,
        edge_budget=edge_budget,
        degree_cap=degree_cap,
        eviction_slack=slack,
    )
    hash_fn = _QuantisedHash(seed, 12) if hashing == "ties" else None
    return StreamingSketchBuilder(
        params, hash_fn=hash_fn, seed=seed, rank_source=rank_source, space=meter
    )


def _state(builder):
    columns = builder.columns()
    sketch = builder.sketch()
    return {
        "ranks": columns.ranks.tolist(),
        "elements": columns.elements.tolist(),
        "set_ids": columns.set_ids.tolist(),
        "threshold": columns.threshold,
        "truncated": columns.truncated.tolist(),
        "describe": builder.describe(),
        "edges_by_set": list(sketch.graph.edges()),
        "graph_elements": list(sketch.graph.elements()),
        "element_hashes": list(sketch.element_hashes.items()),
        "truncated_elements": sorted(sketch.truncated_elements),
    }


def _batches(seed, count):
    """Seeded batches over few sets and elements: repeated pairs within a
    batch and pairs already stored are common."""
    rng = spawn_rng(seed, "shared-grouping")
    for _ in range(count):
        size = int(rng.integers(1, 160))
        set_ids = rng.integers(0, NUM_SETS, size).astype(np.uint64)
        elements = rng.integers(0, NUM_ELEMENTS, size).astype(np.uint64)
        yield EventBatch(set_ids, elements)


@pytest.mark.parametrize("kind", sorted(GROUPS))
@pytest.mark.parametrize("seed", range(6))
def test_a_shared_grouping_matches_each_builders_own_batch_and_the_reference(seed, kind):
    specs = GROUPS[kind]
    shared_meter, own_meter, reference_meter = SpaceMeter(), SpaceMeter(), SpaceMeter()
    shared = [_make(spec, seed + i, shared_meter) for i, spec in enumerate(specs)]
    own = [_make(spec, seed + i, own_meter) for i, spec in enumerate(specs)]
    references = [_Reference(b.params, b._rank, reference_meter) for b in shared]
    batches = list(_batches(seed, 8))
    # The first batch goes edge by edge, so the shared batches meet builders
    # that already hold rows.
    first, rest = batches[0], batches[1:]
    for builder_group in (shared, own):
        for builder in builder_group:
            for set_id, element in zip(first.set_ids.tolist(), first.elements.tolist()):
                builder.add_edge(set_id, element)
    for reference in references:
        for set_id, element in zip(first.set_ids.tolist(), first.elements.tolist()):
            reference.add(set_id, element)
    for batch in rest:
        grouping = BatchGrouping.of(batch, NUM_SETS)
        for builder in shared:
            builder.process_batch(batch, grouping=grouping)
        for builder in own:
            builder.process_batch(batch)
        for reference in references:
            for set_id, element in zip(batch.set_ids.tolist(), batch.elements.tolist()):
                reference.add(set_id, element)
        assert [_state(b) for b in shared] == [_state(b) for b in own]
        assert shared_meter.as_dict() == own_meter.as_dict() == reference_meter.as_dict()
        for builder, reference in zip(shared, references):
            assert builder.sketch().graph == reference.graph()
            assert list(builder.sketch().element_hashes.items()) == list(
                reference.ranks.items()
            )
            assert builder._truncated == reference.truncated
            assert builder.admission_threshold == reference.threshold
            assert (builder.edges_seen, builder.edges_discarded, builder.evictions) == (
                reference.seen,
                reference.discarded,
                len(reference.evicted),
            )
    if kind != "fit":
        assert any(builder.evictions for builder in shared)


def _grouping_fields(grouping):
    return {
        name: getattr(grouping, name).tolist()
        for name in (
            "set_ids",
            "elements",
            "key_elements",
            "key_of",
            "starts",
            "lengths",
            "order",
            "by_element",
            "first",
            "earlier",
        )
    }


@pytest.mark.parametrize("seed", range(20))
def test_a_restricted_grouping_is_the_grouping_of_the_kept_rows(seed):
    rng = spawn_rng(seed, "shared-grouping-restrict")
    size = int(rng.integers(1, 300))
    set_ids = rng.integers(0, 8, size).astype(np.uint64)
    elements = rng.integers(0, 40, size).astype(np.uint64)
    grouping = BatchGrouping.of_rows(set_ids, elements, 8)
    keep = rng.random(len(grouping.key_elements)) < 0.5
    rows = np.isin(elements, grouping.key_elements[keep]).nonzero()[0]
    direct = BatchGrouping.of_rows(set_ids[rows], elements[rows], 8)
    restricted = grouping.restrict(keep)
    assert _grouping_fields(restricted) == _grouping_fields(direct)


def test_first_rows_are_per_pair_and_counted_in_row_order():
    set_ids = np.array([2, 0, 2, 1, 0, 2, 1], dtype=np.uint64)
    elements = np.array([9, 9, 9, 4, 9, 4, 4], dtype=np.uint64)
    grouping = BatchGrouping.of_rows(set_ids, elements, 3)
    assert grouping.key_elements.tolist() == [4, 9]
    assert grouping.first.tolist() == [True, True, False, True, False, True, False]
    assert grouping.earlier.tolist() == [0, 1, 2, 0, 2, 1, 2]
    # (element, set, row): element 4 has sets 1, 2, 1; element 9 has 2, 0, 2, 0.
    assert grouping.order.tolist() == [3, 6, 5, 1, 4, 0, 2]


class _CountingHash:
    """A uniform hash that records the length of every ``value_many`` call."""

    def __init__(self, seed):
        self.hash, self.calls = UniformHash(seed), []

    def value(self, element):
        return self.hash.value(element)

    def value_many(self, elements):
        self.calls.append(len(elements))
        return self.hash.value_many(elements)


def test_a_shared_grouping_ranks_only_the_distinct_elements():
    params = SketchParams.explicit(4, 100, 2, 0.5, edge_budget=500, degree_cap=4)
    batch = EventBatch(
        np.array([0, 1, 2, 0, 3, 1], dtype=np.uint64),
        np.array([5, 5, 5, 7, 7, 8], dtype=np.uint64),
    )
    lone, shared = _CountingHash(1), _CountingHash(1)
    StreamingSketchBuilder(params, hash_fn=lone).process_batch(batch)
    StreamingSketchBuilder(params, hash_fn=shared).process_batch(
        batch, grouping=BatchGrouping.of(batch, 4)
    )
    assert (lone.calls, shared.calls) == ([6], [3])


def test_no_grouping_for_a_batch_the_builders_must_admit_on_their_own():
    params = SketchParams.explicit(3, 50, 2, 0.5, edge_budget=100, degree_cap=5)
    out_of_range = EventBatch(
        np.array([0, 1, 5], dtype=np.uint64), np.array([1, 2, 3], dtype=np.uint64)
    )
    assert BatchGrouping.of(out_of_range, 3) is None
    assert BatchGrouping.of(EventBatch(np.empty(0, np.uint64), np.empty(0, np.uint64)), 3) is None
    ensemble = SketchEnsemble(params, replicas=2)
    with pytest.raises(InvalidInstanceError, match="set id 5 out of range"):
        ensemble.process_batch(out_of_range)


@pytest.mark.parametrize("edge_budget", [30, 120, None])
@pytest.mark.parametrize("batch_size", [7, 256, 4096])
def test_the_ensemble_feeds_its_replicas_one_after_another(edge_budget, batch_size):
    """``SketchEnsemble.process_batch`` shares one grouping; its replicas and
    shared meter end as if each replica took the batch on its own, in
    replica order."""
    instance = planted_kcover_instance(40, 900, k=6, seed=21)
    if edge_budget is None:
        params = SketchParams.scaled(40, 900, 6, 0.3)
    else:
        params = SketchParams.explicit(40, 900, 6, 0.5, edge_budget=edge_budget, degree_cap=4)
    ensemble = SketchEnsemble(params, replicas=3, seed=2)
    meter = SpaceMeter(unit="edges")
    builders = [
        StreamingSketchBuilder(params, hash_fn=builder.hash_fn, space=meter)
        for builder in ensemble._builders
    ]
    stream = EdgeStream.from_graph(instance.graph, order="random", seed=2)
    for batch in stream.iter_batches(batch_size):
        ensemble.process_batch(batch)
        for builder in builders:
            builder.process_batch(batch)
    assert [_state(b) for b in ensemble._builders] == [_state(b) for b in builders]
    assert ensemble.space.as_dict() == meter.as_dict()
    if edge_budget is not None:
        assert all(builder.evictions for builder in builders)


def _own_state(builder):
    """A replica's state without the peak of the meter it shares."""
    state = _state(builder)
    del state["describe"]["space_peak"]
    return state


@pytest.mark.parametrize("edge_budget, batch_size, below", [(30, 7, 0), (60, 1024, 1)])
def test_the_ensemble_meter_records_its_replicas_fed_in_turn(edge_budget, batch_size, below):
    """With explicit budgets the replicas evict, and then the interleave of
    their charges sets the shared meter's peak.  ``process_batch`` leaves
    every replica as the per-event feed does, but its meter records the
    replicas fed one after another per batch: each replica takes the batch's
    edges in turn, where the per-event feed hands every edge to all of them.
    Its peak may then be ``below`` the per-event feed's."""
    instance = planted_kcover_instance(40, 900, k=6, seed=21)
    params = SketchParams.explicit(40, 900, 6, 0.5, edge_budget=edge_budget, degree_cap=4)
    batched, per_event = (SketchEnsemble(params, replicas=3, seed=2) for _ in range(2))
    meter = SpaceMeter(unit="edges")
    in_turn = [
        StreamingSketchBuilder(params, hash_fn=builder.hash_fn, space=meter)
        for builder in batched._builders
    ]
    stream = EdgeStream.from_graph(instance.graph, order="random", seed=2)
    for batch in stream.iter_batches(batch_size):
        batched.process_batch(batch)
        edges = list(zip(batch.set_ids.tolist(), batch.elements.tolist()))
        add_edges(per_event, edges)
        for builder in in_turn:
            add_edges(builder, edges)
    assert [_own_state(b) for b in batched._builders] == [
        _own_state(b) for b in per_event._builders
    ]
    assert [_own_state(b) for b in batched._builders] == [_own_state(b) for b in in_turn]
    assert batched.space.as_dict() == meter.as_dict()
    assert per_event.space.peak - batched.space.peak == below
    assert all(builder.evictions for builder in in_turn)
