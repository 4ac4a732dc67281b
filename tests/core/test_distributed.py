"""Unit tests for repro.distributed (composable sketches, MapReduce simulation)."""

from __future__ import annotations

import pytest

from repro.core.hashing import UniformHash
from repro.core.params import SketchParams
from repro.core.sketch import build_h_leq_n
from repro.coverage.io import write_columnar
from repro.distributed import (
    DistributedKCover,
    EdgePartitioner,
    build_all_machine_sketches,
    build_machine_sketch,
    merge_machine_sketches,
    partition_edges,
    row_range_bounds,
    shard_sizes,
)
from repro.errors import SpecError
from repro.offline.greedy import greedy_k_cover
from repro.streaming.batches import EventBatch
from repro.streaming.events import EdgeArrival
from repro.streaming.stream import EdgeStream


class TestPartition:
    def test_every_edge_assigned_exactly_once(self, planted_kcover):
        edges = list(planted_kcover.graph.edges())
        for strategy in ("random", "by_set", "by_element", "round_robin"):
            shards = partition_edges(edges, 4, strategy=strategy, seed=1)
            assert len(shards) == 4
            merged = sorted(edge for shard in shards for edge in shard)
            assert merged == sorted(edges)

    def test_by_set_keeps_sets_together(self, planted_kcover):
        edges = list(planted_kcover.graph.edges())
        shards = partition_edges(edges, 3, strategy="by_set", seed=2)
        owner: dict[int, int] = {}
        for machine, shard in enumerate(shards):
            for set_id, _ in shard:
                assert owner.setdefault(set_id, machine) == machine

    def test_by_element_keeps_elements_together(self, planted_kcover):
        edges = list(planted_kcover.graph.edges())
        shards = partition_edges(edges, 3, strategy="by_element", seed=3)
        owner: dict[int, int] = {}
        for machine, shard in enumerate(shards):
            for _, element in shard:
                assert owner.setdefault(element, machine) == machine

    def test_round_robin_balance(self):
        edges = [(0, i) for i in range(10)]
        shards = partition_edges(edges, 3, strategy="round_robin")
        assert shard_sizes(shards) == [4, 3, 3]

    def test_random_roughly_balanced(self, planted_kcover):
        edges = list(planted_kcover.graph.edges())
        sizes = shard_sizes(partition_edges(edges, 4, strategy="random", seed=4))
        assert max(sizes) <= 2 * min(sizes)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            partition_edges([], 0)
        with pytest.raises(ValueError):
            partition_edges([], 2, strategy="hash-ring")

    def test_row_range_is_contiguous_and_balanced(self):
        edges = [(0, i) for i in range(11)]
        shards = partition_edges(edges, 3, strategy="row_range")
        assert shard_sizes(shards) == [4, 4, 3]
        assert [e for shard in shards for e in shard] == edges

    def test_row_range_bounds_cover_all_rows(self):
        bounds = row_range_bounds(10, 4)
        assert bounds.tolist() == [0, 3, 6, 8, 10]
        with pytest.raises(ValueError):
            row_range_bounds(-1, 4)

    def test_partitioner_row_range_requires_total(self):
        with pytest.raises(ValueError):
            EdgePartitioner(3, strategy="row_range")

    def test_partitioner_rejects_set_batches(self):
        batch = EventBatch.from_sets([(0, (1, 2))])
        with pytest.raises(TypeError):
            EdgePartitioner(2, strategy="round_robin").split(batch)

    def test_partitioner_row_range_rejects_overflow(self):
        partitioner = EdgePartitioner(2, strategy="row_range", total_edges=3)
        batch = EventBatch.from_edges([(0, 0), (0, 1), (0, 2), (0, 3)])
        with pytest.raises(ValueError):
            partitioner.split(batch)


class TestMerge:
    def _params(self, instance, budget=600, cap=25):
        return SketchParams.explicit(
            instance.n, instance.m, instance.k, 0.2, edge_budget=budget, degree_cap=cap
        )

    def test_merge_respects_budgets(self, planted_kcover):
        params = self._params(planted_kcover)
        shards = partition_edges(list(planted_kcover.graph.edges()), 4, seed=5)
        machines = build_all_machine_sketches(
            map(EventBatch.from_edges, shards), params, hash_seed=5
        )
        merged = merge_machine_sketches(machines, params, hash_seed=5)
        assert merged.num_edges <= params.edge_budget + params.degree_cap
        assert all(
            merged.graph.element_degree(e) <= params.degree_cap
            for e in merged.graph.elements()
        )

    def test_merged_elements_have_global_capped_degree(self, planted_kcover):
        """Composability: below the merged threshold, degrees match the input."""
        params = self._params(planted_kcover)
        hash_fn = UniformHash(6)
        shards = partition_edges(list(planted_kcover.graph.edges()), 3, seed=6)
        machines = build_all_machine_sketches(
            map(EventBatch.from_edges, shards), params, hash_seed=6
        )
        merged = merge_machine_sketches(machines, params, hash_seed=6)
        for element in merged.graph.elements():
            if hash_fn.value(element) < merged.threshold:
                expected = min(
                    planted_kcover.graph.element_degree(element), params.degree_cap
                )
                assert merged.graph.element_degree(element) == expected

    def test_merge_of_single_machine_equals_central_sketch(self, planted_kcover):
        params = self._params(planted_kcover)
        shards = [list(planted_kcover.graph.edges())]
        machines = build_all_machine_sketches(
            map(EventBatch.from_edges, shards), params, hash_seed=7
        )
        merged = merge_machine_sketches(machines, params, hash_seed=7)
        central = build_h_leq_n(planted_kcover.graph, params, UniformHash(7))
        assert set(merged.graph.elements()) <= set(machines[0].sketch.graph.elements())
        # Same admitted elements as the offline central construction.
        assert set(merged.graph.elements()) == set(central.graph.elements())

    def test_merge_requires_at_least_one_machine(self, planted_kcover):
        with pytest.raises(ValueError):
            merge_machine_sketches([], self._params(planted_kcover))

    @pytest.mark.parametrize("machines", [1, 3])
    def test_truncated_merge_matches_offline_algorithm1(self, planted_kcover, machines):
        """Regression: Algorithm 1's threshold is the last *admitted* hash.

        The merge used to record the hash of the first unadmitted element,
        so a truncated merge disagreed with ``build_h_leq_n`` on the union —
        wrong threshold, wrong ``estimate_coverage``.  With a budget the
        input overflows, the merged sketch must now reproduce the offline
        construction exactly: graph, threshold and coverage estimates.
        """
        params = self._params(planted_kcover, budget=400, cap=20)
        shards = partition_edges(
            list(planted_kcover.graph.edges()), machines, seed=12
        )
        machine_sketches = build_all_machine_sketches(
            map(EventBatch.from_edges, shards), params, hash_seed=12
        )
        merged = merge_machine_sketches(machine_sketches, params, hash_seed=12)
        central = build_h_leq_n(planted_kcover.graph, params, UniformHash(12))
        assert central.threshold < 1.0  # the budget truly truncates
        assert merged.threshold == central.threshold
        assert merged.graph.as_dict() == central.graph.as_dict()
        assert merged.element_hashes == central.element_hashes
        assert merged.truncated_elements == central.truncated_elements
        some_sets = list(range(0, planted_kcover.n, 3))
        assert merged.estimate_coverage(some_sets) == central.estimate_coverage(some_sets)

    def test_merge_without_truncation_keeps_global_threshold(self, planted_kcover):
        params = self._params(planted_kcover, budget=10**6, cap=10**6)
        shards = partition_edges(list(planted_kcover.graph.edges()), 2, seed=13)
        machine_sketches = build_all_machine_sketches(
            map(EventBatch.from_edges, shards), params, hash_seed=13
        )
        merged = merge_machine_sketches(machine_sketches, params, hash_seed=13)
        assert merged.threshold == min(
            ms.sketch.threshold for ms in machine_sketches
        )
        assert merged.graph.as_dict() == planted_kcover.graph.as_dict()


class TestWorkerShards:
    """A worker takes edge batches only; any other shard item is a SpecError."""

    @pytest.mark.parametrize(
        "shard",
        [
            [(0, 1), (1, 2)],
            [EdgeArrival(0, 1)],
            [EventBatch.from_edges([(0, 1)]), (1, 2)],
            7,
        ],
        ids=["tuples", "arrivals", "batch-then-tuple", "not-iterable"],
    )
    def test_non_batch_shard_rejected(self, shard):
        params = SketchParams.explicit(3, 10, 1, 0.5, edge_budget=20, degree_cap=3)
        with pytest.raises(SpecError, match="iterable of EventBatch or an EdgeStream"):
            build_machine_sketch(0, shard, params)

    def test_batch_shapes_agree(self, planted_kcover):
        params = SketchParams.explicit(
            planted_kcover.n, planted_kcover.m, 4, 0.2, edge_budget=300, degree_cap=10
        )
        stream = EdgeStream.from_graph(planted_kcover.graph, order="given")
        whole = EventBatch.from_edges(planted_kcover.graph.edges())
        sketches = [
            build_machine_sketch(0, shard, params, hash_seed=3, batch_size=97)
            for shard in (whole, whole.chunks(97), stream)
        ]
        for sketch in sketches[1:]:
            assert sketch.columns.to_sketch(params) == sketches[0].columns.to_sketch(params)
            assert sketch.edges_processed == whole.num_edges


class TestDistributedKCover:
    def test_two_round_quality(self, planted_kcover):
        params = SketchParams.explicit(
            planted_kcover.n, planted_kcover.m, 4, 0.2, edge_budget=700, degree_cap=30
        )
        runner = DistributedKCover(
            planted_kcover.n, planted_kcover.m, k=4, num_machines=4, params=params, seed=8
        )
        report = runner.run(list(planted_kcover.graph.edges()))
        achieved = planted_kcover.graph.coverage(report.solution)
        reference = greedy_k_cover(planted_kcover.graph, 4).coverage
        assert achieved >= 0.85 * reference
        assert report.rounds == 2
        assert report.num_machines == 4

    def test_communication_bounded_by_machine_sketches(self, planted_kcover):
        runner = DistributedKCover(
            planted_kcover.n, planted_kcover.m, k=4, num_machines=5, scale=0.1, seed=9
        )
        report = runner.run(list(planted_kcover.graph.edges()))
        assert report.communication_edges == sum(report.machine_stored_edges)
        assert report.coordinator_edges <= report.communication_edges

    def test_partition_strategy_does_not_change_quality_much(self, planted_kcover):
        values = []
        for strategy in ("random", "by_set", "by_element"):
            runner = DistributedKCover(
                planted_kcover.n, planted_kcover.m, k=4, num_machines=4,
                strategy=strategy, scale=0.2, seed=10,
            )
            report = runner.run(list(planted_kcover.graph.edges()))
            values.append(planted_kcover.graph.coverage(report.solution))
        assert max(values) - min(values) <= 0.15 * max(values)

    def test_report_as_dict(self, planted_kcover):
        runner = DistributedKCover(
            planted_kcover.n, planted_kcover.m, k=3, num_machines=2, scale=0.2, seed=11
        )
        report = runner.run(list(planted_kcover.graph.edges()))
        row = report.as_dict()
        assert row["num_machines"] == 2
        assert row["solution_size"] <= 3
        assert report.max_machine_load == max(report.machine_stored_edges)

    def test_report_as_dict_exposes_load_balance(self, planted_kcover):
        """Regression: shard/stored loads used to be dropped from the table row."""
        runner = DistributedKCover(
            planted_kcover.n, planted_kcover.m, k=3, num_machines=4, scale=0.2, seed=11
        )
        report = runner.run(list(planted_kcover.graph.edges()))
        row = report.as_dict()
        assert row["shard_edges_min"] == min(report.shard_edges)
        assert row["shard_edges_max"] == max(report.shard_edges)
        assert row["shard_edges_mean"] == pytest.approx(
            sum(report.shard_edges) / len(report.shard_edges)
        )
        assert row["machine_load_min"] == min(report.machine_stored_edges)
        assert row["machine_load_max"] == max(report.machine_stored_edges)
        assert row["machine_load_mean"] == pytest.approx(
            sum(report.machine_stored_edges) / len(report.machine_stored_edges)
        )
        assert row["merged_threshold"] == report.merged_threshold
        assert sum(report.shard_edges) == planted_kcover.graph.num_edges

    def test_run_from_columnar_matches_run(self, planted_kcover, tmp_path):
        edges = list(planted_kcover.graph.edges())
        write_columnar(edges, tmp_path / "w.cols", num_sets=planted_kcover.n)
        for strategy in ("random", "row_range"):
            runner = DistributedKCover(
                planted_kcover.n, planted_kcover.m, k=4, num_machines=3,
                strategy=strategy, scale=0.2, seed=14, batch_size=257,
            )
            in_memory = runner.run(edges)
            on_disk = runner.run_from_columnar(tmp_path / "w.cols")
            assert on_disk.solution == in_memory.solution
            assert on_disk.coverage_estimate == in_memory.coverage_estimate
            assert on_disk.merged_threshold == in_memory.merged_threshold
            assert on_disk.shard_edges == in_memory.shard_edges
            assert on_disk.machine_stored_edges == in_memory.machine_stored_edges

    def test_coverage_backend_same_solution_and_recorded(self, planted_kcover):
        edges = list(planted_kcover.graph.edges())
        plain = DistributedKCover(
            planted_kcover.n, planted_kcover.m, k=4, num_machines=3, scale=0.2, seed=15
        ).run(edges)
        kernel = DistributedKCover(
            planted_kcover.n, planted_kcover.m, k=4, num_machines=3, scale=0.2,
            seed=15, coverage_backend="words",
        ).run(edges)
        assert kernel.solution == plain.solution
        assert kernel.coverage_estimate == plain.coverage_estimate
        assert kernel.coverage_backend == "words"
        assert plain.coverage_backend is None
        assert kernel.as_dict()["coverage_backend"] == "words"

    @pytest.mark.parametrize(
        "bad", [{"strategy": "bad"}, {"coverage_backend": "auto"}]
    )
    def test_bad_options_rejected_at_construction(self, bad):
        # Rejected before any edge is read, as a ReproError.
        with pytest.raises(SpecError, match=repr(next(iter(bad.values())))):
            DistributedKCover(10, 100, k=2, **bad)

    def test_run_accepts_iterables_and_batches(self, planted_kcover):
        edges = list(planted_kcover.graph.edges())
        runner = DistributedKCover(
            planted_kcover.n, planted_kcover.m, k=4, num_machines=2, scale=0.2, seed=16
        )
        from_list = runner.run(edges)
        from_iter = runner.run(iter(edges))
        from_batch = runner.run(EventBatch.from_edges(edges))
        assert from_iter.solution == from_list.solution
        assert from_batch.solution == from_list.solution
        assert from_batch.merged_threshold == from_list.merged_threshold

    def test_invalid_machines(self, planted_kcover):
        with pytest.raises(ValueError):
            DistributedKCover(planted_kcover.n, planted_kcover.m, k=3, num_machines=0)
