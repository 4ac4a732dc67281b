"""Unit tests for repro.core.l0 (KMV sketches and the Appendix D baseline)."""

from __future__ import annotations

import pytest

from repro.core.l0 import (
    KMVSketch,
    L0CoverageOracle,
    kmv_size_for_epsilon,
    l0_exhaustive_k_cover,
    l0_greedy_k_cover,
)
from repro.datasets import planted_kcover_instance
from repro.errors import InvalidInstanceError
from repro.offline.exact import exact_k_cover
from repro.offline.greedy import greedy_k_cover
from repro.streaming.batches import EventBatch


class TestKMVSize:
    def test_inverse_square_scaling(self):
        assert kmv_size_for_epsilon(0.1) >= 4 * kmv_size_for_epsilon(0.2) - 1

    def test_minimum_size(self):
        assert kmv_size_for_epsilon(1.0) >= 8

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            kmv_size_for_epsilon(0.0)


class TestKMVSketch:
    def test_exact_below_capacity(self):
        sketch = KMVSketch(64, seed=1)
        sketch.update_many(range(40))
        assert sketch.estimate() == 40.0

    def test_duplicates_ignored(self):
        sketch = KMVSketch(64, seed=1)
        for _ in range(5):
            sketch.update_many(range(30))
        assert sketch.estimate() == 30.0

    def test_estimate_accuracy_above_capacity(self):
        sketch = KMVSketch(256, seed=2)
        sketch.update_many(range(20_000))
        assert sketch.estimate() == pytest.approx(20_000, rel=0.15)

    def test_size_bounded_by_capacity(self):
        sketch = KMVSketch(32, seed=3)
        sketch.update_many(range(1000))
        assert sketch.size == 32

    def test_merge_equals_union(self):
        a, b = KMVSketch(128, seed=4), KMVSketch(128, seed=4)
        a.update_many(range(0, 3000))
        b.update_many(range(1500, 4500))
        merged = KMVSketch.merge_all([a, b])
        assert merged.estimate() == pytest.approx(4500, rel=0.2)

    def test_merge_capacity_mismatch(self):
        with pytest.raises(ValueError):
            KMVSketch.merge_all([KMVSketch(8), KMVSketch(16)])

    def test_merge_all(self):
        sketches = []
        for block in range(3):
            s = KMVSketch(128, seed=5)
            s.update_many(range(block * 1000, (block + 1) * 1000))
            sketches.append(s)
        merged = KMVSketch.merge_all(sketches)
        assert merged.estimate() == pytest.approx(3000, rel=0.2)

    def test_merge_all_empty_raises(self):
        with pytest.raises(ValueError):
            KMVSketch.merge_all([])

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            KMVSketch(0)


class TestL0CoverageOracle:
    @pytest.fixture
    def instance(self):
        return planted_kcover_instance(20, 1500, k=4, seed=3)

    @pytest.fixture
    def oracle(self, instance):
        oracle = L0CoverageOracle(instance.n, epsilon=0.15, seed=3)
        oracle.process_batch(EventBatch.from_edges(instance.graph.edges()))
        return oracle

    def test_union_estimate_accuracy(self, instance, oracle):
        family = [0, 1, 2, 3]
        truth = instance.graph.coverage(family)
        assert oracle.estimate_union(family) == pytest.approx(truth, rel=0.25)

    def test_singleton_estimate(self, instance, oracle):
        truth = instance.graph.set_degree(0)
        assert oracle.estimate_union([0]) == pytest.approx(truth, rel=0.3)

    def test_empty_family(self, oracle):
        assert oracle.estimate_union([]) == 0.0

    def test_query_counter(self, oracle):
        before = oracle.queries
        oracle([0, 1])
        assert oracle.queries == before + 1

    def test_space_charged_is_n_times_capacity(self, instance):
        oracle = L0CoverageOracle(instance.n, epsilon=0.2, seed=1)
        assert oracle.space.peak == oracle.capacity * instance.n

    def test_union_bound_capacity_is_larger(self):
        base = kmv_size_for_epsilon(0.2)
        bigger = L0CoverageOracle.capacity_for_union_bound(100, 5, 0.2)
        assert bigger >= 5 * base  # grows at least linearly with k

    def test_out_of_range_set_rejected(self, oracle):
        with pytest.raises(InvalidInstanceError, match="set id 9999 out of range"):
            oracle.add_edge(9999, 1)


class TestL0KCover:
    def test_exhaustive_matches_optimum_on_tiny(self):
        instance = planted_kcover_instance(8, 200, k=3, seed=5)
        oracle = L0CoverageOracle(instance.n, epsilon=0.1, seed=5)
        oracle.process_batch(EventBatch.from_edges(instance.graph.edges()))
        selection, estimate = l0_exhaustive_k_cover(oracle, 3)
        _, optimum = exact_k_cover(instance.graph, 3)
        achieved = instance.graph.coverage(selection)
        assert achieved >= 0.8 * optimum
        assert estimate > 0

    def test_greedy_close_to_plain_greedy(self):
        instance = planted_kcover_instance(15, 600, k=4, seed=6)
        oracle = L0CoverageOracle(instance.n, epsilon=0.1, seed=6)
        oracle.process_batch(EventBatch.from_edges(instance.graph.edges()))
        selection, _ = l0_greedy_k_cover(oracle, 4)
        achieved = instance.graph.coverage(selection)
        reference = greedy_k_cover(instance.graph, 4).coverage
        assert achieved >= 0.8 * reference

    def test_space_comparison_with_paper_sketch(self):
        """Appendix D vs Theorem 3.1: O~(nk) words vs O~(n) edges."""
        n, k = 100, 10
        per_set = L0CoverageOracle.capacity_for_union_bound(n, k, 0.2)
        l0_total = per_set * n
        from repro.core.params import SketchParams

        sketch_budget = SketchParams.scaled(n, 10_000, k, 0.2).edge_budget
        assert l0_total > sketch_budget  # the ℓ0 route costs more space

    def test_invalid_k(self):
        oracle = L0CoverageOracle(5, epsilon=0.2)
        with pytest.raises(ValueError):
            l0_greedy_k_cover(oracle, 0)


class TestOracleBatchProcessing:
    def test_process_batch_matches_scalar(self):
        from repro.streaming.stream import EdgeStream

        instance = planted_kcover_instance(20, 400, k=4, seed=31)
        scalar = L0CoverageOracle(instance.n, epsilon=0.3, seed=2)
        batched = L0CoverageOracle(instance.n, epsilon=0.3, seed=2)
        for event in EdgeStream.from_graph(instance.graph, order="random", seed=4):
            scalar.process(event)
        stream = EdgeStream.from_graph(instance.graph, order="random", seed=4)
        for batch in stream.iter_batches(64):
            batched.process_batch(batch)
        for set_id in range(instance.n):
            assert (
                batched.sketch_of(set_id).values() == scalar.sketch_of(set_id).values()
            )

    def test_process_batch_rejects_set_batches(self):
        from repro.streaming.batches import EventBatch

        oracle = L0CoverageOracle(4, epsilon=0.3)
        with pytest.raises(TypeError, match="edge batches"):
            oracle.process_batch(EventBatch.from_sets([(0, (1, 2))]))

    def test_process_batch_range_check(self):
        from repro.streaming.batches import EventBatch

        oracle = L0CoverageOracle(4, epsilon=0.3)
        with pytest.raises(InvalidInstanceError, match="set id 9 out of range"):
            oracle.process_batch(EventBatch.from_edges([(9, 1)]))

    @pytest.mark.parametrize("set_id", [-1, 4, 9])
    def test_add_edge_range_check(self, set_id):
        oracle = L0CoverageOracle(4, epsilon=0.3)
        with pytest.raises(InvalidInstanceError, match=f"set id {set_id} out of range"):
            oracle.add_edge(set_id, 1)


class TestKMVVectorisedUpdate:
    def test_update_many_matches_scalar_adds(self):
        items = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 97, 93]
        one_by_one = KMVSketch(8, seed=5)
        for item in items:
            one_by_one.add(item)
        bulk = KMVSketch(8, seed=5)
        bulk.update_many(items)
        assert sorted(bulk.values()) == sorted(one_by_one.values())

    def test_update_many_empty(self):
        sketch = KMVSketch(8, seed=5)
        sketch.update_many([])
        assert sketch.size == 0
