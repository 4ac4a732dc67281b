"""Properties of the one distributed pipeline: map jobs into the merge tree.

Two contracts pinned here:

1. **Reference identity** — every :class:`DistributedKCover` entry point
   builds map jobs, hands them to the executor and folds each machine
   sketch into the :class:`StreamingMergeTree` as it arrives.  For every
   executor backend, partition strategy, machine count and (adversarial)
   arrival order, the run is byte-identical to the reference assembled from
   the public pieces — :func:`partition_edges`,
   :func:`build_all_machine_sketches`, the one-shot
   :func:`merge_machine_sketches` and :func:`greedy_k_cover`: solution,
   coverage estimate, merged threshold, per-machine loads, the merged
   sketch's edges, element hashes and truncation flags.  On top of that the
   binary-counter tree keeps only O(log machines) sketches resident.

2. **Zero-ship map jobs** — for every partition strategy, a columnar run
   ships :class:`~repro.distributed.worker.ShardRecomputeJob` descriptions
   whose pickled payload is a small constant independent of the edge count
   (no edge columns cross the process boundary), and the recomputed shards
   yield the byte-identical run the in-memory path yields.
"""

from __future__ import annotations

import math
import pickle

import pytest

from repro.api import solve
from repro.core.params import SketchParams
from repro.coverage.io import open_columnar, write_columnar
from repro.datasets import planted_kcover_instance
from repro.distributed import (
    PARTITION_STRATEGIES,
    DistributedKCover,
    ShardRecomputeJob,
    StreamingMergeTree,
    build_all_machine_sketches,
    build_machine_sketch,
    merge_machine_sketches,
    partition_edges,
)
from repro.offline.greedy import greedy_k_cover
from repro.streaming.batches import EventBatch

EXECUTORS = ("serial", "thread", "process")
K = 4


def _instance(seed=11):
    return planted_kcover_instance(40, 900, k=K, planted_coverage=0.85, seed=seed)


def _params(instance) -> SketchParams:
    return SketchParams.explicit(
        instance.n, instance.m, K, 0.2, edge_budget=350, degree_cap=15
    )


def _run_key(report):
    return (
        report.solution,
        report.coverage_estimate,
        report.merged_threshold,
        report.shard_edges,
        report.machine_stored_edges,
        report.coordinator_edges,
    )


def _reference_key(instance, edges, *, machines, strategy, seed=11):
    """The run key rebuilt from the public pieces, one-shot merge included."""
    params = _params(instance)
    shards = partition_edges(edges, machines, strategy=strategy, seed=seed)
    sketches = build_all_machine_sketches(
        map(EventBatch.from_edges, shards), params, hash_seed=seed
    )
    merged = merge_machine_sketches(sketches, params, hash_seed=seed)
    solution = greedy_k_cover(merged.graph, K).selected
    return (
        solution,
        merged.estimate_coverage(solution),
        merged.threshold,
        [len(shard) for shard in shards],
        [ms.edges_stored for ms in sketches],
        merged.num_edges,
    )


def _sketch_key(sketch):
    return (
        sorted(sketch.graph.edges()),
        sketch.threshold,
        sketch.element_hashes,
        sketch.truncated_elements,
    )


def _kcover(instance, *, machines, strategy="random", executor=None, seed=11):
    return DistributedKCover(
        instance.n, instance.m, k=K, num_machines=machines, strategy=strategy,
        params=_params(instance), seed=seed, executor=executor, max_workers=3,
    )


def _assert_tree_bounds(peak_resident, merge_count, machines):
    # Binary-counter bound: at most floor(log2(M)) + 1 resident subtrees
    # (plus the one being sifted in), and one pairwise merge per extra leaf.
    assert peak_resident <= int(math.log2(machines)) + 2
    assert merge_count == max(1, machines - 1)
    if machines >= 4:
        assert peak_resident < machines


class TestReferenceIdentity:
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    def test_run_matches_reference(self, executor, strategy):
        instance = _instance()
        edges = list(instance.graph.edges())
        report = _kcover(
            instance, machines=3, strategy=strategy, executor=executor
        ).run(edges)
        assert _run_key(report) == _reference_key(
            instance, edges, machines=3, strategy=strategy
        )
        assert report.executor == executor

    @pytest.mark.parametrize("machines", [1, 2, 5, 8])
    def test_resident_sketches_logarithmic(self, machines):
        instance = _instance()
        edges = list(instance.graph.edges())
        report = _kcover(instance, machines=machines).run(edges)
        assert _run_key(report) == _reference_key(
            instance, edges, machines=machines, strategy="random"
        )
        _assert_tree_bounds(
            report.peak_resident_sketches, report.merge_count, machines
        )

    @pytest.mark.parametrize("machines", [1, 2, 5, 8])
    def test_solve_reports_tree_bounds(self, machines):
        instance = _instance(seed=9)
        report = solve(
            instance, "kcover/distributed", k=K, seed=9,
            options={"num_machines": machines, "edge_budget": 350, "degree_cap": 15},
        )
        reference = _reference_key(
            instance, list(instance.graph.edges()),
            machines=machines, strategy="random", seed=9,
        )
        assert list(report.solution) == reference[0]
        assert report.extra["merged_threshold"] == reference[2]
        _assert_tree_bounds(
            report.extra["peak_resident_sketches"],
            report.extra["merge_count"],
            machines,
        )


class TestMergeTreeArrivalOrders:
    """The tree result is independent of the order sketches arrive in."""

    def _machine_sketches(self, machines, seed=11):
        instance = _instance(seed)
        params = _params(instance)
        edges = list(instance.graph.edges())
        shards = [edges[i::machines] for i in range(machines)]
        return params, [
            build_machine_sketch(i, EventBatch.from_edges(shard), params, hash_seed=seed)
            for i, shard in enumerate(shards)
        ]

    @pytest.mark.parametrize("machines", [1, 2, 3, 8])
    def test_adversarial_orders_match_one_shot_merge(self, machines):
        params, sketches = self._machine_sketches(machines)
        one_shot = merge_machine_sketches(sketches, params, hash_seed=11)
        orders = {
            "in_order": list(range(machines)),
            "reversed": list(reversed(range(machines))),
            "interleaved": [
                index
                for pair in zip(
                    range(machines), reversed(range(machines))
                )
                for index in pair
            ][:machines],
        }
        for name, order in orders.items():
            tree = StreamingMergeTree(params, hash_seed=11)
            for index in dict.fromkeys(order):
                tree.add(sketches[index])
            merged = tree.result()
            assert _sketch_key(merged) == _sketch_key(one_shot), name
            assert tree.merge_count == max(1, machines - 1), name
            assert tree.peak_resident <= int(math.log2(machines)) + 2, name

    @pytest.mark.parametrize("machines", [1, 3])
    def test_result_is_the_root_columns_materialised(self, machines):
        params, sketches = self._machine_sketches(machines)
        trees = [StreamingMergeTree(params, hash_seed=11) for _ in range(2)]
        for tree in trees:
            for sketch in sketches:
                tree.add(sketch)
        root = trees[1].result_columns()
        assert _sketch_key(root.to_sketch(params)) == _sketch_key(trees[0].result())
        assert trees[0].merge_count == trees[1].merge_count

    def test_empty_tree_rejected(self):
        instance = _instance()
        tree = StreamingMergeTree(_params(instance))
        with pytest.raises(ValueError, match="no machine sketches"):
            tree.result()
        with pytest.raises(ValueError, match="no machine sketches"):
            tree.result_columns()


class TestShardRecomputeJobs:
    @pytest.fixture()
    def columnar(self, tmp_path):
        instance = _instance()
        path = tmp_path / "w.cols"
        write_columnar(instance.graph.edges(), path, num_sets=instance.n)
        return instance, path

    @staticmethod
    def _file_order_edges(path):
        columns = open_columnar(path)
        return list(zip(columns.set_ids.tolist(), columns.elements.tolist()))

    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_recompute_matches_reference(self, columnar, strategy, executor):
        instance, path = columnar
        recomputed = _kcover(
            instance, machines=3, strategy=strategy, executor=executor,
        ).run_from_columnar(path)
        assert _run_key(recomputed) == _reference_key(
            instance, self._file_order_edges(path), machines=3, strategy=strategy
        )

    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    def test_pickled_job_ships_no_edge_bytes(self, columnar, tmp_path, strategy):
        """The job payload is a small constant, independent of edge count."""
        instance, path = columnar
        columns = open_columnar(path)
        big_path = tmp_path / "big.cols"
        write_columnar(
            (edge for _ in range(10) for edge in instance.graph.edges()),
            big_path, num_sets=instance.n,
        )
        sizes = {}
        for source in (path, big_path):
            job = ShardRecomputeJob(
                machine_id=0,
                path=str(source),
                strategy=strategy,
                seed=11,
                num_machines=3,
                params=_params(instance),
            )
            sizes[source] = len(pickle.dumps(job))
        assert columns.num_edges > 500  # the payload bound is not vacuous
        for source, size in sizes.items():
            assert size < 1024, (strategy, source, size)
        # 10x the edges moves the payload only by the path-string length.
        assert abs(sizes[big_path] - sizes[path]) <= len(str(big_path))

    def test_serial_columnar_equals_in_memory(self, columnar):
        """Serial recompute jobs over the file match a run on its edges."""
        instance, path = columnar
        columnar_report = _kcover(instance, machines=3).run_from_columnar(path)
        in_memory = _kcover(instance, machines=3).run(self._file_order_edges(path))
        assert _run_key(columnar_report) == _run_key(in_memory)
