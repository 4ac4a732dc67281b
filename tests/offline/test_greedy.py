"""Unit tests for repro.offline.greedy."""

from __future__ import annotations

import pytest

from repro.coverage.bipartite import BipartiteGraph
from repro.offline.exact import exact_k_cover
from repro.offline.greedy import (
    greedy_k_cover,
    greedy_order,
    greedy_partial_cover,
    greedy_set_cover,
)


class TestGreedyKCover:
    def test_picks_best_pair(self, tiny_graph):
        result = greedy_k_cover(tiny_graph, 2)
        assert result.coverage == 6
        assert set(result.selected) == {0, 2}
        assert result.gains == [3, 3]

    def test_k_one(self, tiny_graph):
        result = greedy_k_cover(tiny_graph, 1)
        assert result.coverage == 3
        assert result.selected[0] in (0, 2)

    def test_k_larger_than_needed_stops_at_saturation(self, tiny_graph):
        result = greedy_k_cover(tiny_graph, 4)
        assert result.coverage == 6
        assert result.size <= 3  # sets 1 and 3 add nothing once 0, 2 chosen

    def test_forbidden_sets_excluded(self, tiny_graph):
        result = greedy_k_cover(tiny_graph, 2, forbidden=[0])
        assert 0 not in result.selected

    def test_invalid_k(self, tiny_graph):
        with pytest.raises(ValueError):
            greedy_k_cover(tiny_graph, 0)

    def test_guarantee_against_exact_on_random_instances(self):
        # 1 - 1/e guarantee (with slack for ties): check on several instances.
        from repro.datasets import uniform_random_instance

        for seed in range(5):
            instance = uniform_random_instance(12, 40, density=0.15, k=3, seed=seed)
            greedy = greedy_k_cover(instance.graph, 3)
            _, optimum = exact_k_cover(instance.graph, 3)
            assert greedy.coverage >= (1 - 1 / 2.718281828) * optimum - 1e-9

    def test_gains_are_non_increasing(self, planted_kcover):
        result = greedy_k_cover(planted_kcover.graph, 8)
        assert all(a >= b for a, b in zip(result.gains, result.gains[1:]))

    def test_coverage_equals_sum_of_gains(self, planted_kcover):
        result = greedy_k_cover(planted_kcover.graph, 6)
        assert result.coverage == sum(result.gains)

    def test_selected_are_distinct(self, planted_kcover):
        result = greedy_k_cover(planted_kcover.graph, 10)
        assert len(result.selected) == len(set(result.selected))


class TestGreedySetCover:
    def test_covers_everything(self, tiny_graph):
        result = greedy_set_cover(tiny_graph)
        assert tiny_graph.coverage(result.selected) == tiny_graph.num_elements

    def test_minimal_on_tiny(self, tiny_graph):
        result = greedy_set_cover(tiny_graph)
        assert result.size == 2  # {0, 2} covers all six elements

    def test_allow_partial_on_fully_coverable_graph(self):
        graph = BipartiteGraph(2)
        graph.add_edge(0, 0)
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        result = greedy_set_cover(graph, allow_partial=True)
        assert result.coverage == graph.num_elements
        assert set(result.selected) == {0, 1}

    def test_ln_m_guarantee_on_planted(self, planted_setcover):
        result = greedy_set_cover(planted_setcover.graph)
        import math

        optimum = len(planted_setcover.planted_solution)
        assert result.size <= optimum * (math.log(planted_setcover.m) + 1)


class TestGreedyPartialCover:
    def test_reaches_target_fraction(self, planted_setcover):
        result = greedy_partial_cover(planted_setcover.graph, 0.9)
        assert planted_setcover.graph.coverage_fraction(result.selected) >= 0.9

    def test_zero_target_returns_empty(self, tiny_graph):
        result = greedy_partial_cover(tiny_graph, 0.0)
        assert result.selected == []

    def test_full_target_equals_set_cover(self, tiny_graph):
        partial = greedy_partial_cover(tiny_graph, 1.0)
        full = greedy_set_cover(tiny_graph)
        assert partial.coverage == full.coverage

    def test_partial_cover_uses_fewer_sets(self, planted_setcover):
        partial = greedy_partial_cover(planted_setcover.graph, 0.6)
        full = greedy_set_cover(planted_setcover.graph)
        assert partial.size <= full.size

    def test_invalid_fraction(self, tiny_graph):
        with pytest.raises(ValueError):
            greedy_partial_cover(tiny_graph, 1.5)


class TestGreedyOrder:
    def test_order_covers_all_coverable(self, tiny_graph):
        order = greedy_order(tiny_graph)
        assert tiny_graph.coverage(order) == tiny_graph.num_elements

    def test_order_prefix_matches_k_cover(self, tiny_graph):
        order = greedy_order(tiny_graph)
        k2 = greedy_k_cover(tiny_graph, 2)
        assert order[:2] == k2.selected


class TestKernelPath:
    """Every greedy entry point accepts a packed-bitset kernel."""

    def _kernel(self, graph):
        from repro.coverage.bitset import BitsetCoverage

        return BitsetCoverage(graph)

    def test_k_cover_matches(self, tiny_graph):
        kernel = self._kernel(tiny_graph)
        plain = greedy_k_cover(tiny_graph, 2)
        fast = greedy_k_cover(tiny_graph, 2, kernel=kernel)
        assert fast.coverage == plain.coverage
        assert tiny_graph.coverage(fast.selected) == fast.coverage
        assert fast.gains and fast.evaluations > 0

    def test_k_cover_forbidden(self, tiny_graph):
        kernel = self._kernel(tiny_graph)
        fast = greedy_k_cover(tiny_graph, 3, forbidden=[0], kernel=kernel)
        assert 0 not in fast.selected

    def test_set_cover_matches(self, tiny_graph):
        kernel = self._kernel(tiny_graph)
        plain = greedy_set_cover(tiny_graph)
        fast = greedy_set_cover(tiny_graph, kernel=kernel)
        assert fast.coverage == plain.coverage == tiny_graph.num_elements

    def test_partial_cover_matches(self, tiny_graph):
        kernel = self._kernel(tiny_graph)
        plain = greedy_partial_cover(tiny_graph, 0.5)
        fast = greedy_partial_cover(tiny_graph, 0.5, kernel=kernel)
        assert fast.coverage >= 3
        assert plain.coverage >= 3

    def test_greedy_order_matches_positive_gain_prefix(self, tiny_graph):
        kernel = self._kernel(tiny_graph)
        assert set(greedy_order(tiny_graph, kernel=kernel)) == set(greedy_order(tiny_graph))

    def test_kernel_and_graph_greedy_agree_on_tie_heavy_instances(self):
        # Regression: tie-breaking must not depend on which implementation
        # evaluates the greedy — this seed hits a consequential step-4 tie.
        from repro.datasets import zipf_instance

        for seed in (6, 0, 3, 11):
            graph = zipf_instance(40, 500, edges_per_set=30, k=6, seed=seed).graph
            plain = greedy_k_cover(graph, 6)
            kernel_result = greedy_k_cover(graph, 6, kernel=self._kernel(graph))
            assert kernel_result.selected == plain.selected
            assert kernel_result.coverage == plain.coverage
            assert kernel_result.gains == plain.gains
