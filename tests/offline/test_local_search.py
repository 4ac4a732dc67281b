"""Unit tests for repro.offline.local_search."""

from __future__ import annotations

import pytest

from repro.coverage.bitset import BitsetCoverage
from repro.datasets import uniform_random_instance
from repro.errors import InvalidInstanceError
from repro.offline.exact import exact_k_cover
from repro.offline.greedy import greedy_k_cover
from repro.offline.local_search import local_search_k_cover


class TestLocalSearch:
    def test_never_worse_than_initial(self, planted_kcover):
        result = local_search_k_cover(planted_kcover.graph, 4, seed=3)
        assert result.coverage >= result.improved_from

    def test_respects_k(self, planted_kcover):
        result = local_search_k_cover(planted_kcover.graph, 4, seed=3)
        assert len(result.selected) == 4
        assert len(set(result.selected)) == 4

    def test_explicit_initial_solution(self, tiny_graph):
        result = local_search_k_cover(tiny_graph, 2, initial=[1, 3])
        assert result.coverage == 6  # local search fixes the bad start

    def test_start_from_greedy_is_local_optimum(self, tiny_graph):
        result = local_search_k_cover(tiny_graph, 2, start_from_greedy=True)
        assert result.coverage == greedy_k_cover(tiny_graph, 2).coverage
        assert result.iterations == 0

    def test_half_guarantee_on_small_instances(self):
        for seed in range(3):
            instance = uniform_random_instance(10, 40, density=0.15, seed=seed)
            _, optimum = exact_k_cover(instance.graph, 3)
            result = local_search_k_cover(instance.graph, 3, seed=seed)
            assert result.coverage >= 0.5 * optimum - 1e-9

    def test_invalid_k(self, tiny_graph):
        with pytest.raises(ValueError):
            local_search_k_cover(tiny_graph, 0)

    def test_k_capped_at_n(self, tiny_graph):
        result = local_search_k_cover(tiny_graph, 10, seed=1)
        assert len(result.selected) <= tiny_graph.num_sets


@pytest.mark.parametrize(
    "options, error",
    [
        ({"initial": [-1]}, InvalidInstanceError),
        ({"initial": [7]}, InvalidInstanceError),
        ({"initial": [0, 2**70]}, InvalidInstanceError),
        ({"max_iterations": -3}, ValueError),
    ],
    ids=["negative-id", "id-past-the-end", "huge-id", "negative-iterations"],
)
def test_bad_arguments_fail_alike_on_both_paths(tiny_graph, options, error):
    for kernel in (None, BitsetCoverage(tiny_graph)):
        with pytest.raises(error, match="out of range|max_iterations"):
            local_search_k_cover(tiny_graph, 2, kernel=kernel, **options)
