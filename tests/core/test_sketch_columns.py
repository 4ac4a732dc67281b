"""Machine sketches travel as rank-sorted columns.

Pinned here: the columns a worker exports (``StreamingSketchBuilder.columns``)
hold exactly the builder's own sketch, for every partition strategy and for
shards that fit, hit the degree cap or overflow the edge budget; a pickled
:class:`MachineSketch` carries flat numpy buffers only (no graph, no Python
sets); columns are sorted by ``(rank, element, set)``; and the reduce refuses
sketches ranked by a different hash.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core.hashing import UniformHash
from repro.core.params import SketchParams
from repro.core.sketch_columns import SketchColumns, admission_order
from repro.core.streaming_sketch import StreamingSketchBuilder
from repro.coverage.bipartite import BipartiteGraph
from repro.coverage.bitset import kernel_for
from repro.datasets import planted_kcover_instance
from repro.distributed import (
    PARTITION_STRATEGIES,
    StreamingMergeTree,
    build_machine_sketch,
    merge_machine_sketches,
    partition_edges,
)
from repro.errors import ReproError, SpecError
from repro.offline.greedy import greedy_k_cover
from repro.streaming.batches import EventBatch

from per_event import add_edges

SEED = 21

#: (edge_budget, degree_cap): every shard fits; hubs hit the degree cap;
#: shards overflow the edge budget and evict.
BUDGETS = {
    "fits": (10**6, 10**6),
    "degree-cap": (10**6, 3),
    "budget-overflow": (120, 12),
}


@pytest.fixture(scope="module")
def instance():
    return planted_kcover_instance(40, 900, k=4, planted_coverage=0.85, seed=SEED)


def _params(instance, budget, cap) -> SketchParams:
    return SketchParams.explicit(
        instance.n, instance.m, 4, 0.2, edge_budget=budget, degree_cap=cap
    )


def _shards(instance, strategy):
    return partition_edges(list(instance.graph.edges()), 3, strategy=strategy, seed=SEED)


def _builder_sketch(shard, params):
    builder = StreamingSketchBuilder(params, hash_fn=UniformHash(SEED))
    for set_id, element in shard:
        builder.add_edge(set_id, element)
    return builder.sketch()


def _forbidden_objects(value, seen=None):
    """Every ``set``/``frozenset``/graph object reachable from ``value``."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return []
    seen.add(id(value))
    if isinstance(value, (set, frozenset, BipartiteGraph)):
        return [type(value).__name__]
    if isinstance(value, np.ndarray):
        return ["object array"] if value.dtype == object else []
    if isinstance(value, dict):
        children = list(value.values())
    elif isinstance(value, (list, tuple)):
        children = list(value)
    elif dataclasses.is_dataclass(value):
        children = list(vars(value).values())
    else:
        return []
    return [found for child in children for found in _forbidden_objects(child, seen)]


class TestMachineSketchColumns:
    @pytest.mark.parametrize("budget", BUDGETS, ids=list(BUDGETS))
    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    def test_lazy_sketch_equals_builder_sketch(self, instance, strategy, budget):
        params = _params(instance, *BUDGETS[budget])
        for machine_id, shard in enumerate(_shards(instance, strategy)):
            machine = build_machine_sketch(
                machine_id, EventBatch.from_edges(shard), params, hash_seed=SEED
            )
            expected = _builder_sketch(shard, params)
            view = machine.sketch
            assert view.graph == expected.graph
            assert view.element_hashes == expected.element_hashes
            assert view.threshold == expected.threshold
            assert view.truncated_elements == expected.truncated_elements
            assert machine.edges_stored == expected.num_edges
            assert machine.sketch is view  # built once, then cached

    def test_budgets_exercise_truncation_and_eviction(self, instance):
        """The parametrisation above is not vacuous."""
        shard = _shards(instance, "random")[0]
        capped = _builder_sketch(shard, _params(instance, *BUDGETS["degree-cap"]))
        overflow = _builder_sketch(shard, _params(instance, *BUDGETS["budget-overflow"]))
        assert capped.truncated_elements
        assert overflow.threshold < 1.0

    @pytest.mark.parametrize("budget", BUDGETS, ids=list(BUDGETS))
    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    def test_pickle_ships_flat_columns_only(self, instance, strategy, budget):
        params = _params(instance, *BUDGETS[budget])
        for machine_id, shard in enumerate(_shards(instance, strategy)):
            machine = build_machine_sketch(
                machine_id, EventBatch.from_edges(shard), params, hash_seed=SEED
            )
            machine.sketch  # a built view must not ride along either
            payload = pickle.dumps(machine)
            restored = pickle.loads(payload)
            assert _forbidden_objects(restored) == []
            assert "sketch" not in vars(restored)
            # 8 bytes of rank + 16 of endpoints per stored edge, plus params.
            assert len(payload) <= 24 * machine.edges_stored + 2048
            assert restored.sketch.graph == machine.sketch.graph
            assert restored.sketch.element_hashes == machine.sketch.element_hashes

    def test_columns_are_rank_sorted(self, instance):
        params = _params(instance, *BUDGETS["budget-overflow"])
        shard = EventBatch.from_edges(_shards(instance, "random")[0])
        columns = build_machine_sketch(0, shard, params).columns
        order = np.lexsort((columns.set_ids, columns.elements, columns.ranks))
        assert order.tolist() == list(range(columns.num_edges))
        assert columns.ranks.dtype == np.float64
        assert columns.elements.dtype == columns.set_ids.dtype == np.uint64

    @pytest.mark.parametrize("rank_source", ["hash", "permutation"])
    def test_builder_columns_round_trip(self, instance, rank_source):
        params = _params(instance, *BUDGETS["budget-overflow"])
        builder = StreamingSketchBuilder(params, seed=SEED, rank_source=rank_source)
        add_edges(builder, instance.graph.edges())
        expected = builder.sketch()
        rebuilt = builder.columns().to_sketch(params)
        assert rebuilt.graph == expected.graph
        assert rebuilt.element_hashes == expected.element_hashes
        assert rebuilt.threshold == expected.threshold
        assert rebuilt.truncated_elements == expected.truncated_elements

    def test_empty_builder_columns(self, instance):
        params = _params(instance, *BUDGETS["fits"])
        builder = StreamingSketchBuilder(params, seed=SEED)
        columns = builder.columns()
        assert columns.num_edges == 0
        assert columns.to_sketch(params).graph == builder.sketch().graph
        assert columns.threshold == builder.sketch().threshold


class TestGreedyOnColumns:
    @pytest.mark.parametrize("backend", [None, "words"])
    @pytest.mark.parametrize("budget", BUDGETS, ids=list(BUDGETS))
    def test_greedy_and_counts_match_the_sketch_graph(self, instance, budget, backend):
        params = _params(instance, *BUDGETS[budget])
        builder = StreamingSketchBuilder(params, seed=SEED)
        add_edges(builder, instance.graph.edges())
        columns, graph = builder.columns(), builder.sketch().graph
        assert columns.num_elements == graph.num_elements
        for forbidden in ((), (0, 1, 2)):
            got = columns.greedy_k_cover(
                params.num_sets, 4, forbidden=forbidden, coverage_backend=backend
            )
            expected = greedy_k_cover(
                graph, 4, forbidden=forbidden, kernel=kernel_for(graph, backend)
            )
            assert got == expected
            assert got.coverage == graph.coverage(got.selected)

    def test_unknown_backend_is_rejected(self, instance):
        columns = StreamingSketchBuilder(_params(instance, 10, 10), seed=SEED).columns()
        assert columns.num_elements == 0
        with pytest.raises(SpecError):
            columns.greedy_k_cover(instance.n, 2, coverage_backend="bytes")


class TestRowsInAdmissionOrder:
    def test_admission_order_sorts_rows_for_the_constructor(self):
        ranks = np.array([0.7, 0.2, 0.7])
        elements = np.array([5, 3, 5], dtype=np.uint64)
        set_ids = np.array([1, 0, 0], dtype=np.uint64)
        order = admission_order(ranks, elements, set_ids)
        columns = SketchColumns(ranks[order], elements[order], set_ids[order], threshold=0.9)
        assert columns.ranks.tolist() == [0.2, 0.7, 0.7]
        assert columns.elements.tolist() == [3, 5, 5]
        assert columns.set_ids.tolist() == [0, 0, 1]
        assert (columns.num_edges, columns.num_elements) == (3, 2)
        assert columns.truncated.dtype == np.uint64 and columns.truncated.size == 0


class TestHashSeedGuard:
    def test_merge_refuses_a_foreign_hash(self, instance):
        params = _params(instance, *BUDGETS["fits"])
        shards = _shards(instance, "random")
        machines = [
            build_machine_sketch(i, EventBatch.from_edges(shard), params, hash_seed=SEED)
            for i, shard in enumerate(shards)
        ]
        with pytest.raises(SpecError, match="hash seed"):
            merge_machine_sketches(machines, params, hash_seed=SEED + 1)
        tree = StreamingMergeTree(params, hash_seed=SEED + 1)
        with pytest.raises(ReproError):
            tree.add(machines[0])


class TestReduceTelemetry:
    def test_fold_rows_are_recorded_and_the_greedy_reads_the_root(self, instance):
        from repro import obs
        from repro.distributed import DistributedKCover

        params = _params(instance, *BUDGETS["budget-overflow"])
        obs.global_metrics().reset()
        with obs.tracing() as tracer:
            report = DistributedKCover(
                instance.n, instance.m, k=4, num_machines=4, params=params, seed=SEED
            ).run(list(instance.graph.edges()))
        records = tracer.records()
        folds = [r for r in records if r.name == "reduce.fold"]
        assert len(folds) == report.merge_count == 3
        metrics = obs.global_metrics().snapshot()
        rows_in = metrics["distributed.fold_rows_in"]
        rows_out = metrics["distributed.fold_rows_out"]
        assert rows_in["count"] == rows_out["count"] == report.merge_count
        assert 0 < rows_out["sum"] <= rows_in["sum"]
        # Round 2 runs on the root's columns: no graph is built.
        assert not [r for r in records if r.name == "reduce.materialize"]
        (greedy,) = [r for r in records if r.name == "distributed.greedy"]
        assert greedy.attrs_dict() == {"k": 4, "rows": report.coordinator_edges}
        assert greedy.start >= max(fold.start + fold.duration for fold in folds)
