"""Property-based tests for the offline algorithms (hypothesis)."""

from __future__ import annotations

from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coverage.bipartite import BipartiteGraph
from repro.coverage.bitset import BitsetCoverage
from repro.offline.exact import exact_k_cover, exact_set_cover
from repro.offline.greedy import (
    _ColumnGains,
    _GraphGains,
    _KernelGains,
    _select,
    greedy_k_cover,
    greedy_k_cover_columns,
    greedy_set_cover,
)

set_systems = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=25), min_size=0, max_size=8),
    min_size=2,
    max_size=8,
)


def _graph(sets) -> BipartiteGraph:
    return BipartiteGraph.from_sets([list(s) for s in sets])


@given(sets=set_systems, k=st.integers(min_value=1, max_value=4))
@settings(max_examples=50, deadline=None)
def test_greedy_never_beats_exact_and_respects_ratio(sets, k):
    graph = _graph(sets)
    greedy = greedy_k_cover(graph, k)
    _, optimum = exact_k_cover(graph, k)
    assert greedy.coverage <= optimum
    assert greedy.coverage >= (1 - 1 / 2.718281828) * optimum - 1e-9


@given(sets=set_systems, k=st.integers(min_value=1, max_value=4))
@settings(max_examples=50, deadline=None)
def test_greedy_selection_is_feasible(sets, k):
    graph = _graph(sets)
    result = greedy_k_cover(graph, k)
    assert len(result.selected) <= k
    assert len(set(result.selected)) == len(result.selected)
    assert graph.coverage(result.selected) == result.coverage


@given(sets=set_systems)
@settings(max_examples=50, deadline=None)
def test_greedy_set_cover_feasible_and_exact_not_larger(sets):
    graph = _graph(sets)
    if graph.num_elements == 0:
        return
    greedy = greedy_set_cover(graph, allow_partial=True)
    assert graph.coverage(greedy.selected) == graph.num_elements
    exact = exact_set_cover(graph)
    assert len(exact) <= greedy.size


@given(sets=set_systems, k=st.integers(min_value=1, max_value=3))
@settings(max_examples=30, deadline=None)
def test_exact_k_cover_is_truly_optimal(sets, k):
    graph = _graph(sets)
    _, value = exact_k_cover(graph, k)
    n = graph.num_sets
    brute = max(
        (graph.coverage(c) for c in combinations(range(n), min(k, n))), default=0
    )
    assert value == brute


#: ``(num_sets, set ids, elements)``: rows with repeats (duplicate edges) and
#: large element ids, over more sets than the rows use (empty sets).
edge_columns = st.integers(min_value=1, max_value=8).flatmap(
    lambda num_sets: st.tuples(
        st.just(num_sets),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=num_sets - 1),
                st.sampled_from([0, 1, 2, 3, 5, 8, 1 << 40, (1 << 63) + 7]),
            ),
            max_size=40,
        ),
    )
)


@given(
    columns=edge_columns,
    k=st.integers(min_value=1, max_value=10),
    forbidden=st.frozensets(st.integers(min_value=0, max_value=9), max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_column_greedy_matches_graph_greedy(columns, k, forbidden):
    """Same selection, coverage, gains and evaluation count as the graph greedy
    on the graph of the columns: few distinct elements force gain ties, and k
    runs past the number of non-empty sets."""
    num_sets, rows = columns
    set_ids = np.array([s for s, _ in rows], dtype=np.uint64)
    elements = np.array([e for _, e in rows], dtype=np.uint64)
    graph = BipartiteGraph.from_columns(num_sets, set_ids, elements)
    expected = greedy_k_cover(graph, k, forbidden=forbidden)
    got = greedy_k_cover_columns(set_ids, elements, num_sets, k, forbidden=forbidden)
    assert got.selected == expected.selected
    assert got.coverage == expected.coverage
    assert got.gains == expected.gains
    assert got.evaluations == expected.evaluations


def test_column_greedy_breaks_ties_to_the_smallest_set_id():
    set_ids = np.array([3, 3, 1, 1, 2], dtype=np.uint64)
    elements = np.array([10, 11, 20, 21, 10], dtype=np.uint64)
    result = greedy_k_cover_columns(set_ids, elements, 4, 3)
    # Sets 1 and 3 tie at gain 2; set 2's only element is then covered.
    assert result.selected == [1, 3]
    assert result.gains == [2, 2]
    assert result.coverage == 4


def _eager_greedy(members, *, max_sets, target_coverage, forbidden):
    """Reference greedy over Python sets: every step rescans every gain and
    takes the first (smallest) set id of maximal positive gain."""
    covered: set[int] = set()
    selected: list[int] = []
    gains: list[int] = []
    while (max_sets is None or len(selected) < max_sets) and (
        target_coverage is None or len(covered) < target_coverage
    ):
        best, best_gain = None, 0
        for set_id, elements in enumerate(members):
            gain = len(elements - covered)
            if gain > best_gain and set_id not in forbidden:
                best, best_gain = set_id, gain
        if best is None:
            break
        selected.append(best)
        gains.append(best_gain)
        covered |= members[best]
    return selected, len(covered), gains


@given(
    columns=edge_columns,
    max_sets=st.none() | st.integers(min_value=1, max_value=10),
    target_coverage=st.none() | st.integers(min_value=0, max_value=9),
    forbidden=st.frozensets(st.integers(min_value=-2, max_value=10), max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_every_evaluator_selects_like_the_eager_reference(
    columns, max_sets, target_coverage, forbidden
):
    """The one lazy loop, over the graph, column and both kernel evaluators,
    equals an eager argmax rescan in selection, coverage and gains — under
    every stop rule, with forbidden ids inside and outside the sets' range."""
    num_sets, rows = columns
    set_ids = np.array([s for s, _ in rows], dtype=np.uint64)
    elements = np.array([e for _, e in rows], dtype=np.uint64)
    members: list[set[int]] = [set() for _ in range(num_sets)]
    for set_id, element in rows:
        members[set_id].add(element)
    expected = _eager_greedy(
        members, max_sets=max_sets, target_coverage=target_coverage, forbidden=forbidden
    )
    graph = BipartiteGraph.from_columns(num_sets, set_ids, elements)
    evaluators = [
        _GraphGains(graph),
        _ColumnGains(num_sets, set_ids, elements),
        _KernelGains(BitsetCoverage(graph)),
        _KernelGains(BitsetCoverage.from_columns(num_sets, set_ids, elements)),
    ]
    for gains in evaluators:
        got = _select(
            gains, max_sets=max_sets, target_coverage=target_coverage, forbidden=forbidden
        )
        assert (got.selected, got.coverage, got.gains) == expected
