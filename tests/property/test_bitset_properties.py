"""Property-based tests: the bitset evaluator agrees with the set-based graph."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coverage.bipartite import BipartiteGraph
from repro.coverage.bitset import BitsetCoverage
from repro.offline.greedy import greedy_k_cover

set_systems = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=40), max_size=12),
    min_size=1,
    max_size=10,
)

families = st.lists(st.integers(min_value=0, max_value=9), max_size=10)


def _graph(sets) -> BipartiteGraph:
    return BipartiteGraph.from_sets([list(s) for s in sets])


@given(sets=set_systems, family=families)
@settings(max_examples=80, deadline=None)
def test_coverage_agrees_with_graph(sets, family):
    graph = _graph(sets)
    fast = BitsetCoverage(graph)
    family = [f % len(sets) for f in family]
    assert fast.coverage(family) == graph.coverage(family)
    assert fast.coverage_fraction(family) == graph.coverage_fraction(family) or (
        graph.num_elements == 0
    )


@given(sets=set_systems, covered=families)
@settings(max_examples=60, deadline=None)
def test_marginal_gains_agree_with_graph(sets, covered):
    graph = _graph(sets)
    fast = BitsetCoverage(graph)
    covered = [c % len(sets) for c in covered]
    covered_elements = graph.neighbors(covered)
    gains = fast.marginal_gains(fast.union_bits(covered))
    for set_id in range(graph.num_sets):
        assert gains[set_id] == len(graph.elements_of(set_id) - covered_elements)


@given(sets=set_systems, k=st.integers(min_value=1, max_value=4))
@settings(max_examples=50, deadline=None)
def test_vectorised_greedy_satisfies_greedy_guarantee(sets, k):
    # The 1 − 1/e guarantee against the true optimum, plus feasibility.
    from repro.offline.exact import exact_k_cover

    graph = _graph(sets)
    result = greedy_k_cover(graph, k, kernel=BitsetCoverage(graph))
    assert graph.coverage(result.selected) == result.coverage
    assert len(result.selected) <= k
    _, optimum = exact_k_cover(graph, k)
    assert result.coverage >= (1 - 1 / 2.718281828) * optimum - 1e-9


@given(
    sets=set_systems,
    extra_rows=st.lists(
        st.tuples(st.integers(min_value=0, max_value=9), st.integers(0, 40)),
        max_size=10,
    ),
)
@settings(max_examples=60, deadline=None)
def test_from_columns_packs_what_the_graph_packs(sets, extra_rows):
    """One packing routine: the columns' kernel equals the graph's, repeated
    rows counting once."""
    graph = _graph(sets)
    set_ids, elements = graph.to_columns()
    rows = [(s, e) for s, e in extra_rows if s < graph.num_sets]
    for set_id, element in rows:
        graph.add_edge(set_id, element)
    set_ids = np.concatenate([set_ids, np.array([s for s, _ in rows], dtype=np.uint64)])
    elements = np.concatenate([elements, np.array([e for _, e in rows], dtype=np.uint64)])
    from_graph = BitsetCoverage(graph)
    from_columns = BitsetCoverage.from_columns(graph.num_sets, set_ids, elements)
    assert np.array_equal(from_columns._packed, from_graph._packed)
    assert from_columns.num_elements == from_graph.num_elements == graph.num_elements
    assert from_columns.set_sizes.tolist() == [graph.set_degree(s) for s in graph.set_ids()]
    n = graph.num_sets
    assert greedy_k_cover(graph, n, kernel=from_columns) == greedy_k_cover(
        graph, n, kernel=from_graph
    )
