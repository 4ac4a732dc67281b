"""Unit tests for repro.coverage.bipartite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coverage.bipartite import BipartiteGraph
from repro.coverage.bitset import BitsetCoverage
from repro.errors import InvalidInstanceError, ReproError, SpecError
from repro.offline.greedy import greedy_k_cover_columns
from repro.utils.rng import spawn_rng


class TestConstruction:
    def test_empty_graph(self):
        graph = BipartiteGraph(3)
        assert graph.num_sets == 3
        assert graph.num_elements == 0
        assert graph.num_edges == 0

    def test_invalid_num_sets(self):
        with pytest.raises(ValueError):
            BipartiteGraph(0)

    def test_from_sets_list(self):
        graph = BipartiteGraph.from_sets([[0, 1], [1, 2]])
        assert graph.num_sets == 2
        assert graph.num_edges == 4
        assert graph.elements_of(0) == frozenset({0, 1})

    def test_from_sets_mapping(self):
        graph = BipartiteGraph.from_sets({0: [5], 2: [6, 7]})
        assert graph.num_sets == 3
        assert graph.elements_of(1) == frozenset()

    def test_from_sets_num_sets_override(self):
        graph = BipartiteGraph.from_sets([[0]], num_sets=5)
        assert graph.num_sets == 5

    def test_from_sets_empty_raises(self):
        with pytest.raises(InvalidInstanceError):
            BipartiteGraph.from_sets([])


class TestEdges:
    def test_add_edge_counts(self, tiny_graph):
        assert tiny_graph.num_edges == 9
        assert tiny_graph.num_elements == 6

    def test_duplicate_edge_ignored(self, tiny_graph):
        assert tiny_graph.add_edge(0, 0) is False
        assert tiny_graph.num_edges == 9

    def test_add_edge_new(self, tiny_graph):
        assert tiny_graph.add_edge(3, 0) is True
        assert tiny_graph.num_edges == 10

    def test_add_edge_bad_set_raises(self, tiny_graph):
        with pytest.raises(InvalidInstanceError):
            tiny_graph.add_edge(10, 0)

    def test_add_edge_negative_element_raises(self, tiny_graph):
        with pytest.raises(ValueError):
            tiny_graph.add_edge(0, -1)

    def test_remove_edge(self, tiny_graph):
        assert tiny_graph.remove_edge(0, 0) is True
        assert tiny_graph.remove_edge(0, 0) is False
        assert tiny_graph.num_edges == 8

    def test_remove_edge_drops_isolated_element(self, tiny_graph):
        tiny_graph.remove_edge(3, 5)
        tiny_graph.remove_edge(2, 5)
        assert not tiny_graph.has_element(5)

    def test_remove_element(self, tiny_graph):
        removed = tiny_graph.remove_element(2)
        assert removed == 2  # element 2 belongs to sets 0 and 1
        assert tiny_graph.num_edges == 7
        assert not tiny_graph.has_element(2)

    def test_remove_absent_element(self, tiny_graph):
        assert tiny_graph.remove_element(99) == 0

    def test_edges_iterator_complete(self, tiny_graph):
        edges = set(tiny_graph.edges())
        assert (0, 0) in edges and (2, 5) in edges
        assert len(edges) == tiny_graph.num_edges


class TestQueries:
    def test_degrees(self, tiny_graph):
        assert tiny_graph.set_degree(0) == 3
        assert tiny_graph.set_degree(3) == 1
        assert tiny_graph.element_degree(5) == 2
        assert tiny_graph.element_degree(99) == 0

    def test_sets_of(self, tiny_graph):
        assert tiny_graph.sets_of(3) == frozenset({1, 2})
        assert tiny_graph.sets_of(42) == frozenset()

    def test_neighbors_and_coverage(self, tiny_graph):
        assert tiny_graph.neighbors([0, 1]) == {0, 1, 2, 3}
        assert tiny_graph.coverage([0, 1]) == 4
        assert tiny_graph.coverage([]) == 0
        assert tiny_graph.coverage(range(4)) == 6

    def test_coverage_fraction(self, tiny_graph):
        assert tiny_graph.coverage_fraction([0]) == pytest.approx(0.5)
        assert tiny_graph.coverage_fraction(range(4)) == pytest.approx(1.0)

    def test_coverage_fraction_empty_graph(self):
        graph = BipartiteGraph(2)
        assert graph.coverage_fraction([0]) == 1.0

    def test_uncovered_elements(self, tiny_graph):
        assert tiny_graph.uncovered_elements([0]) == {3, 4, 5}

    def test_marginal_gain(self, tiny_graph):
        covered = tiny_graph.neighbors([0])
        assert [tiny_graph.marginal_gain(s, covered) for s in range(4)] == [0, 1, 3, 1]
        assert tiny_graph.marginal_gain(2, frozenset()) == 3
        with pytest.raises(InvalidInstanceError):
            tiny_graph.marginal_gain(4, covered)

    def test_set_ids(self, tiny_graph):
        assert list(tiny_graph.set_ids()) == [0, 1, 2, 3]


class TestDerivedGraphs:
    def test_induced_on_elements(self, tiny_graph):
        sub = tiny_graph.induced_on_elements([0, 3])
        assert sub.num_sets == tiny_graph.num_sets
        assert sub.num_elements == 2
        assert sub.coverage([0]) == 1
        assert sub.coverage([1, 2]) == 1

    def test_induced_on_unknown_elements(self, tiny_graph):
        sub = tiny_graph.induced_on_elements([99])
        assert sub.num_edges == 0

    def test_without_elements(self, tiny_graph):
        residual = tiny_graph.without_elements(tiny_graph.neighbors([0]))
        assert residual.num_elements == 3
        assert set(residual.elements()) == {3, 4, 5}

    def test_copy_independent(self, tiny_graph):
        clone = tiny_graph.copy()
        clone.add_edge(3, 0)
        assert tiny_graph.num_edges == 9
        assert clone.num_edges == 10

    def test_equality(self, tiny_graph):
        assert tiny_graph == tiny_graph.copy()
        other = tiny_graph.copy()
        other.add_edge(3, 0)
        assert tiny_graph != other

    def test_as_dict(self, tiny_graph):
        mapping = tiny_graph.as_dict()
        assert mapping[0] == frozenset({0, 1, 2})
        assert mapping[3] == frozenset({5})


def _add_edge_loop(num_sets, set_ids, elements):
    graph = BipartiteGraph(num_sets)
    for set_id, element in zip(set_ids.tolist(), elements.tolist()):
        graph.add_edge(set_id, element)
    return graph


def _assert_identical(graph, reference):
    """Equal adjacency, counts and iteration order on both sides."""
    assert graph == reference
    assert graph.num_edges == reference.num_edges
    assert graph.num_elements == reference.num_elements
    assert list(graph.elements()) == list(reference.elements())
    # Set-side and element-side iteration orders (edges() walks the sets,
    # to_columns() walks the elements).
    assert list(graph.edges()) == list(reference.edges())
    for built, expected in zip(graph.to_columns(), reference.to_columns()):
        assert built.tolist() == expected.tolist()
    set_ids, elements = graph.to_set_columns()
    assert list(zip(set_ids.tolist(), elements.tolist())) == list(reference.edges())


class TestFromColumns:
    """``from_columns`` is the bulk twin of an ``add_edge`` loop."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_rows_match_add_edge_loop(self, seed):
        rng = spawn_rng(seed, "from-columns")
        rows = int(rng.integers(1, 600))
        num_sets = int(rng.integers(1, 40))
        set_ids = rng.integers(0, num_sets, rows).astype(np.uint64)
        # A narrow element range forces shared elements and duplicate rows;
        # large ids check nothing is re-indexed.
        elements = (rng.integers(0, 80, rows) * 1_000_003).astype(np.uint64)
        graph = BipartiteGraph.from_columns(num_sets, set_ids, elements)
        _assert_identical(graph, _add_edge_loop(num_sets, set_ids, elements))

    def test_duplicate_rows_count_once(self):
        set_ids = np.array([2, 0, 2, 2, 0, 1], dtype=np.uint64)
        elements = np.array([7, 5, 7, 9, 5, 7], dtype=np.uint64)
        graph = BipartiteGraph.from_columns(3, set_ids, elements)
        _assert_identical(graph, _add_edge_loop(3, set_ids, elements))
        assert graph.num_edges == 4
        assert list(graph.elements()) == [7, 5, 9]

    def test_empty_columns(self):
        empty = np.empty(0, dtype=np.uint64)
        graph = BipartiteGraph.from_columns(4, empty, empty)
        assert graph == BipartiteGraph(4)
        assert graph.num_edges == 0 and list(graph.elements()) == []

    def test_single_set(self):
        elements = np.array([3, 1, 3, 2], dtype=np.int64)
        set_ids = np.zeros(4, dtype=np.int64)
        graph = BipartiteGraph.from_columns(1, set_ids, elements)
        _assert_identical(graph, _add_edge_loop(1, set_ids, elements))
        assert graph.elements_of(0) == frozenset({1, 2, 3})

    def test_to_columns_round_trip(self, tiny_graph):
        rebuilt = BipartiteGraph.from_columns(tiny_graph.num_sets, *tiny_graph.to_columns())
        assert rebuilt == tiny_graph
        assert list(rebuilt.elements()) == list(tiny_graph.elements())

    @pytest.mark.parametrize("bad_set", [3, -1], ids=["too-large", "negative"])
    def test_out_of_range_set_id_is_a_repro_error(self, bad_set):
        set_ids = np.array([0, bad_set], dtype=np.int64)
        elements = np.array([1, 2], dtype=np.int64)
        with pytest.raises(InvalidInstanceError, match="out of range"):
            BipartiteGraph.from_columns(3, set_ids, elements)
        with pytest.raises(ReproError):
            BipartiteGraph.from_columns(3, set_ids, elements)

    def test_malformed_columns_rejected(self):
        with pytest.raises(ValueError):
            BipartiteGraph.from_columns(2, np.array([0, 1]), np.array([4]))
        with pytest.raises(ValueError):
            BipartiteGraph.from_columns(2, np.array([0]), np.array([-4]))
        with pytest.raises(TypeError):
            BipartiteGraph.from_columns(2, np.array([0.0]), np.array([4]))


#: Every reader of ``(set_id, element)`` columns, as ``(num_sets, set_ids,
#: elements) -> result``.
_COLUMN_READERS = {
    "graph": BipartiteGraph.from_columns,
    "kernel": BitsetCoverage.from_columns,
    "greedy": lambda num_sets, set_ids, elements: greedy_k_cover_columns(
        set_ids, elements, num_sets, 1
    ),
}


@pytest.mark.parametrize("reader", sorted(_COLUMN_READERS))
@pytest.mark.parametrize(
    "set_ids, elements",
    [([0, 1], [1]), ([0], [1, 2]), ([], [1]), ([[0, 1]], [[1, 2]])],
    ids=["more-set-ids", "more-elements", "no-set-ids", "two-dimensional"],
)
def test_ragged_columns_are_a_spec_error(reader, set_ids, elements):
    with pytest.raises(SpecError, match="parallel 1-d columns"):
        _COLUMN_READERS[reader](
            3, np.array(set_ids, dtype=np.int64), np.array(elements, dtype=np.int64)
        )


class TestAddColumns:
    """``add_columns`` into a filled graph is an ``add_edge`` loop in bulk."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_rows_into_a_filled_graph(self, seed):
        rng = spawn_rng(seed, "add-columns")
        num_sets = int(rng.integers(1, 30))

        def rows(count):
            set_ids = rng.integers(0, num_sets, count).astype(np.uint64)
            return set_ids, (rng.integers(0, 60, count) * 7919).astype(np.uint64)

        graph = BipartiteGraph(num_sets)
        reference = BipartiteGraph(num_sets)
        for _ in range(3):
            set_ids, elements = rows(int(rng.integers(0, 200)))
            new = graph.add_columns(set_ids, elements)
            expected = [
                reference.add_edge(s, e) for s, e in zip(set_ids.tolist(), elements.tolist())
            ]
            assert new.tolist() == expected
            _assert_identical(graph, reference)

    def test_shared_element_ids_are_stored(self):
        elements = np.array([10**6, 10**6 + 1, 10**6], dtype=np.uint64)
        element_ids = elements.tolist()
        graph = BipartiteGraph(2)
        new = graph.add_columns(np.array([0, 0, 1], dtype=np.uint64), elements, element_ids)
        assert new.tolist() == [True, True, True]
        assert all(
            any(stored is given for given in element_ids) for stored in graph.elements()
        )

    def test_out_of_range_names_the_first_offending_row(self):
        graph = BipartiteGraph(3)
        graph.add_edge(0, 1)
        with pytest.raises(InvalidInstanceError, match="set id 7 out of range"):
            graph.add_columns(np.array([1, 7, 9]), np.array([2, 3, 4]))
        assert graph.num_edges == 1  # validated before anything is inserted

    def test_has_edges(self, tiny_graph):
        set_ids = np.array([0, 0, 3, 3], dtype=np.uint64)
        elements = np.array([0, 5, 5, 0], dtype=np.uint64)
        assert tiny_graph.has_edges(set_ids, elements).tolist() == [True, False, True, False]
