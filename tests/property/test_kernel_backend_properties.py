"""Property tests for the packed coverage kernel and the columnar format.

Two contracts from the perf pass:

* the packed kernel is bit-for-bit identical to the set-based evaluation on
  every query (coverage, marginal gains, subset gains) and the greedy run
  on it selects exactly the sets the set-based greedy selects, on random
  *and* adversarial instances;
* a columnar round-trip preserves an edge list exactly (same pairs, same
  order), including through the text edge-list format.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coverage.bipartite import BipartiteGraph
from repro.coverage.bitset import BitsetCoverage
from repro.coverage.io import (
    columnar_from_edge_list,
    open_columnar,
    read_edge_list,
    write_columnar,
    write_edge_list,
)
from repro.datasets.adversarial import uniform_sampling_trap
from repro.datasets.random_instances import planted_kcover_instance
from repro.offline.greedy import greedy_k_cover

set_systems = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=80), max_size=16),
    min_size=1,
    max_size=12,
)

families = st.lists(st.integers(min_value=0, max_value=11), max_size=10)


def _graph(sets) -> BipartiteGraph:
    return BipartiteGraph.from_sets([list(s) for s in sets])


def _adversarial_graphs():
    yield uniform_sampling_trap(num_sets=12, big_set_size=300, seed=4).graph
    yield planted_kcover_instance(30, 500, k=5, seed=6).graph


def _set_gains(graph: BipartiteGraph, covered_sets) -> list[int]:
    covered = graph.neighbors(covered_sets)
    return [len(graph.elements_of(s) - covered) for s in range(graph.num_sets)]


@given(sets=set_systems, family=families)
@settings(max_examples=60, deadline=None)
def test_kernel_queries_match_set_based(sets, family):
    graph = _graph(sets)
    kernel = BitsetCoverage(graph)
    family = np.array([f % len(sets) for f in family], dtype=np.intp)
    assert kernel.coverage(family) == graph.coverage(family.tolist())
    bits = kernel.union_bits(family)
    expected = _set_gains(graph, family.tolist())
    assert kernel.marginal_gains(bits).tolist() == expected
    subset = np.arange(graph.num_sets, dtype=np.intp)[::2]
    assert kernel.gains_for(subset, bits).tolist() == expected[::2]


@given(sets=set_systems, k=st.integers(min_value=1, max_value=5))
@settings(max_examples=50, deadline=None)
def test_kernel_greedy_selects_like_set_based_greedy(sets, k):
    graph = _graph(sets)
    reference = greedy_k_cover(graph, k)
    result = greedy_k_cover(graph, k, kernel=BitsetCoverage(graph))
    assert (result.selected, result.coverage) == (reference.selected, reference.coverage)


@pytest.mark.parametrize("k", [1, 3, 6])
def test_kernel_matches_set_based_on_adversarial_instances(k):
    for graph in _adversarial_graphs():
        kernel = BitsetCoverage(graph)
        reference = greedy_k_cover(graph, k)
        result = greedy_k_cover(graph, k, kernel=kernel)
        assert (result.selected, result.coverage) == (reference.selected, reference.coverage)
        assert kernel.marginal_gains(kernel.empty_bits()).tolist() == _set_gains(graph, [])


edge_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=200)
    ),
    max_size=60,
)


@given(edges=edge_lists)
@settings(max_examples=40, deadline=None)
def test_columnar_round_trip_preserves_pairs(edges, tmp_path_factory):
    path = tmp_path_factory.mktemp("columnar") / "cols"
    write_columnar(edges, path)
    columns = open_columnar(path)
    assert list(columns.pairs()) == [(int(s), int(e)) for s, e in edges]
    assert columns.num_edges == len(edges)


@given(edges=edge_lists)
@settings(max_examples=40, deadline=None)
def test_columnar_conversion_equals_read_edge_list(edges, tmp_path_factory):
    base = tmp_path_factory.mktemp("roundtrip")
    text = base / "edges.tsv"
    write_edge_list(edges, text)
    columnar_from_edge_list(text, base / "cols")
    columns = open_columnar(base / "cols")
    assert list(columns.labelled_pairs()) == read_edge_list(text)
