"""The coverage function ``C(S) = |∪ S|`` through each of its oracles.

The set-based :class:`BipartiteGraph` and the packed-word
:class:`BitsetCoverage` evaluate the same function, so every check here runs
on both: hand-worked values on the tiny graph, the best singleton, and
sampled monotonicity and submodularity of the marginal gains.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from repro.coverage.bipartite import BipartiteGraph
from repro.coverage.bitset import BitsetCoverage
from repro.datasets import uniform_random_instance


class GraphOracle:
    """``C`` and its marginal gains read from the graph's adjacency sets."""

    def __init__(self, graph: BipartiteGraph) -> None:
        self.graph = graph

    def coverage(self, family) -> int:
        return self.graph.coverage(family)

    def fraction(self, family) -> float:
        return self.graph.coverage_fraction(family)

    def gain(self, family, set_id: int) -> int:
        return self.graph.marginal_gain(set_id, self.graph.neighbors(family))


class WordsOracle:
    """``C`` and its marginal gains read from the packed bit-rows."""

    def __init__(self, graph: BipartiteGraph) -> None:
        self.kernel = BitsetCoverage(graph)

    def coverage(self, family) -> int:
        return self.kernel.coverage(family)

    def fraction(self, family) -> float:
        return self.kernel.coverage_fraction(family)

    def gain(self, family, set_id: int) -> int:
        return int(self.kernel.gains_for([set_id], self.kernel.union_bits(family))[0])


ORACLES = {"graph": GraphOracle, "words": WordsOracle}


@pytest.fixture(params=sorted(ORACLES))
def oracle_of(request):
    return ORACLES[request.param]


def _random_nested_families(rng: np.random.Generator, num_sets: int, trials: int):
    """``trials`` pairs ``S ⊆ T`` of set families, plus a set ``x`` outside ``T``
    when one exists (else ``None``)."""
    for _ in range(trials):
        order = rng.permutation(num_sets).tolist()
        big = int(rng.integers(0, num_sets + 1))
        small = int(rng.integers(0, big + 1))
        outside = order[big] if big < num_sets else None
        yield order[:small], order[:big], outside


class TestTinyGraphValues:
    def test_coverage_values(self, tiny_graph, oracle_of):
        cover = oracle_of(tiny_graph)
        assert cover.coverage([0]) == 3
        assert cover.coverage([0, 1]) == 4
        assert cover.coverage([]) == 0
        assert cover.coverage(range(4)) == 6

    def test_coverage_fraction(self, tiny_graph, oracle_of):
        cover = oracle_of(tiny_graph)
        assert cover.fraction([0]) == pytest.approx(0.5)
        assert cover.fraction([1, 3]) == pytest.approx(0.5)
        assert cover.fraction(range(4)) == pytest.approx(1.0)

    def test_marginal_gain(self, tiny_graph, oracle_of):
        cover = oracle_of(tiny_graph)
        assert cover.gain([0], 1) == 1
        assert cover.gain([], 2) == 3
        assert cover.gain([2], 3) == 0
        assert cover.gain([0, 2], 1) == 0

    def test_best_singleton(self, tiny_graph, oracle_of):
        cover = oracle_of(tiny_graph)
        values = [cover.coverage([s]) for s in range(4)]
        assert max(values) == 3
        assert [s for s, v in enumerate(values) if v == 3] == [0, 2]

    def test_gain_is_the_coverage_difference(self, tiny_graph, oracle_of):
        cover = oracle_of(tiny_graph)
        for size in range(4):
            for family in combinations(range(4), size):
                for set_id in range(4):
                    grown = cover.coverage([*family, set_id])
                    assert cover.gain(list(family), set_id) == grown - cover.coverage(family)


class TestSampledStructure:
    def test_monotone_sampled(self, oracle_of, rng):
        instance = uniform_random_instance(12, 60, density=0.15, seed=4)
        cover = oracle_of(instance.graph)
        for small, big, _ in _random_nested_families(rng, 12, trials=100):
            assert cover.coverage(small) <= cover.coverage(big)

    def test_submodular_sampled(self, oracle_of, rng):
        instance = uniform_random_instance(12, 60, density=0.15, seed=4)
        cover = oracle_of(instance.graph)
        checked = 0
        for small, big, outside in _random_nested_families(rng, 12, trials=100):
            if outside is None:
                continue
            assert cover.gain(small, outside) >= cover.gain(big, outside)
            checked += 1
        assert checked > 50


def test_oracles_agree_on_every_family_of_the_tiny_graph(tiny_graph):
    graph, words = GraphOracle(tiny_graph), WordsOracle(tiny_graph)
    for size in range(5):
        for family in combinations(range(4), size):
            assert words.coverage(family) == graph.coverage(family)
            assert words.fraction(family) == graph.fraction(family)
