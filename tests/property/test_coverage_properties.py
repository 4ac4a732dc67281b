"""Property-based tests for the coverage substrate (hypothesis)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coverage.bipartite import BipartiteGraph

# Strategy: a small random set system as a list of frozensets of element ids.
set_systems = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=30), max_size=10),
    min_size=1,
    max_size=8,
)

families = st.lists(st.integers(min_value=0, max_value=7), max_size=8)


def _graph(sets: list[frozenset[int]]) -> BipartiteGraph:
    return BipartiteGraph.from_sets([list(s) for s in sets])


@given(sets=set_systems)
@settings(max_examples=60, deadline=None)
def test_edge_count_is_sum_of_set_sizes(sets):
    graph = _graph(sets)
    assert graph.num_edges == sum(len(s) for s in sets)
    assert graph.num_elements == len(set().union(*sets)) if any(sets) else True


@given(sets=set_systems, family=families)
@settings(max_examples=60, deadline=None)
def test_coverage_equals_union_size(sets, family):
    graph = _graph(sets)
    family = [f % len(sets) for f in family]
    expected = len(set().union(*(sets[f] for f in family))) if family else 0
    assert graph.coverage(family) == expected


@given(sets=set_systems, family=families)
@settings(max_examples=60, deadline=None)
def test_monotonicity_of_coverage(sets, family):
    graph = _graph(sets)
    family = [f % len(sets) for f in family]
    for cut in range(len(family) + 1):
        assert graph.coverage(family[:cut]) <= graph.coverage(family)


@given(sets=set_systems, family=families, extra=st.integers(min_value=0, max_value=7))
@settings(max_examples=60, deadline=None)
def test_submodularity_of_marginal_gains(sets, family, extra):
    graph = _graph(sets)
    family = [f % len(sets) for f in family]
    extra = extra % len(sets)
    prefix = family[: len(family) // 2]
    # Diminishing returns: gain on the prefix >= gain on the full family.
    assert graph.marginal_gain(extra, graph.neighbors(prefix)) >= graph.marginal_gain(
        extra, graph.neighbors(family)
    )


@given(sets=set_systems)
@settings(max_examples=40, deadline=None)
def test_induced_plus_removed_partition_edges(sets):
    graph = _graph(sets)
    elements = list(graph.elements())
    keep = elements[::2]
    kept = graph.induced_on_elements(keep)
    dropped = graph.induced_on_elements(set(elements) - set(keep))
    assert kept.num_edges + dropped.num_edges == graph.num_edges


@given(sets=set_systems)
@settings(max_examples=40, deadline=None)
def test_copy_equality_roundtrip(sets):
    graph = _graph(sets)
    assert graph.copy() == graph
