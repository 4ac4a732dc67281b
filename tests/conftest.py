"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coverage.bipartite import BipartiteGraph
from repro.datasets import planted_kcover_instance, planted_setcover_instance
from repro.parallel import mapper
from repro.utils.rng import spawn_rng


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic numpy generator for sampled checks."""
    return spawn_rng(12345, "test-suite-fixture")


@pytest.fixture
def tiny_graph() -> BipartiteGraph:
    """A 4-set, 6-element graph small enough to reason about by hand.

    sets: 0 -> {0,1,2}, 1 -> {2,3}, 2 -> {3,4,5}, 3 -> {5}
    """
    graph = BipartiteGraph(4)
    for set_id, members in enumerate([(0, 1, 2), (2, 3), (3, 4, 5), (5,)]):
        for element in members:
            graph.add_edge(set_id, element)
    return graph


@pytest.fixture
def figure1_graph() -> BipartiteGraph:
    """The style of example in the paper's Figure 1: 4 sets over 8 elements."""
    graph = BipartiteGraph(4)
    memberships = {
        0: [0, 1, 2, 3],
        1: [2, 3, 4, 5],
        2: [4, 5, 6, 7],
        3: [0, 3, 5, 7],
    }
    for set_id, members in memberships.items():
        for element in members:
            graph.add_edge(set_id, element)
    return graph


@pytest.fixture
def planted_kcover():
    """A moderate planted k-cover instance with a known optimum."""
    return planted_kcover_instance(60, 1200, k=4, planted_coverage=0.85, seed=7)


@pytest.fixture
def planted_setcover():
    """A moderate planted set cover instance with a known minimum cover."""
    return planted_setcover_instance(40, 600, cover_size=6, seed=11)


@pytest.fixture
def fresh_process_pools():
    """Shut the live process pools down, so the test's first process map
    starts its pool; yields the table of live pools to inspect, and shuts
    down the pools the test started."""
    mapper._shutdown_pools()
    yield mapper._POOLS
    mapper._shutdown_pools()
