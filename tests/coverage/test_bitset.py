"""Unit tests for repro.coverage.bitset (vectorised coverage evaluation)."""

from __future__ import annotations

import numpy as np
import pytest

import repro.coverage.bitset as bitset_module
from repro.coverage.bipartite import BipartiteGraph
from repro.coverage.bitset import (
    COVERAGE_BACKENDS,
    BitsetCoverage,
    check_coverage_backend,
    kernel_for,
)
from repro.core.sketch_columns import SketchColumns, admission_order
from repro.datasets import uniform_random_instance, zipf_instance
from repro.errors import SpecError
from repro.offline.greedy import greedy_k_cover, greedy_partial_cover
from repro.utils.rng import spawn_rng


class TestBasics:
    def test_sizes(self, tiny_graph):
        fast = BitsetCoverage(tiny_graph)
        assert fast.num_sets == 4
        assert fast.num_elements == 6
        assert fast.set_sizes.tolist() == [3, 2, 3, 1]

    def test_coverage_matches_graph(self, tiny_graph):
        fast = BitsetCoverage(tiny_graph)
        for family in ([], [0], [1, 3], [0, 1, 2, 3], [2, 2]):
            assert fast.coverage(family) == tiny_graph.coverage(family)

    def test_coverage_accepts_numpy_index_arrays(self, tiny_graph):
        fast = BitsetCoverage(tiny_graph)
        for family in ([0], [1, 3], [0, 1, 2, 3]):
            for dtype in (np.int64, np.intp, np.uint32):
                assert fast.coverage(np.array(family, dtype=dtype)) == tiny_graph.coverage(family)
        assert fast.coverage(np.array([], dtype=np.int64)) == 0

    def test_coverage_fraction(self, tiny_graph):
        fast = BitsetCoverage(tiny_graph)
        assert fast.coverage_fraction([0]) == pytest.approx(0.5)
        assert fast.coverage_fraction([]) == 0.0

    def test_snapshot_semantics(self, tiny_graph):
        fast = BitsetCoverage(tiny_graph)
        tiny_graph.add_edge(3, 0)
        # The evaluator reflects the graph at construction time.
        assert fast.coverage([3]) == 1

    def test_evaluate_many(self, tiny_graph):
        fast = BitsetCoverage(tiny_graph)
        assert fast.evaluate_many([[0], [2], [0, 2]]) == [3, 3, 6]

    def test_count_bits_is_the_coverage_of_a_union(self, tiny_graph):
        fast = BitsetCoverage(tiny_graph)
        for family in ([], [0], [1, 3], [0, 1, 2, 3]):
            assert fast.count_bits(fast.union_bits(family)) == tiny_graph.coverage(family)


def _columns_of(graph):
    """A graph's edges as sketch columns, each element ranked by its id."""
    set_ids, elements = graph.to_columns()
    ranks = elements.astype(np.float64)
    order = admission_order(ranks, elements, set_ids)
    return SketchColumns(ranks[order], elements[order], set_ids[order], threshold=1.0)


class TestBackendChoices:
    def test_accepted_values(self):
        assert COVERAGE_BACKENDS == ("words",)
        for value in (None, *COVERAGE_BACKENDS):
            check_coverage_backend(value)

    @pytest.mark.parametrize("bad", ["auto", "bytes", "nibbles", "WORDS", ""])
    def test_unknown_backend_rejected_everywhere(self, tiny_graph, bad):
        with pytest.raises(SpecError, match=r"\('words',\)"):
            check_coverage_backend(bad)
        with pytest.raises(SpecError, match="unknown coverage_backend"):
            kernel_for(tiny_graph, bad)
        with pytest.raises(SpecError, match="unknown coverage_backend"):
            _columns_of(tiny_graph).greedy_k_cover(tiny_graph.num_sets, 2, coverage_backend=bad)

    def test_kernel_for_skips_none_and_empty_graphs(self, tiny_graph):
        assert kernel_for(tiny_graph, None) is None
        assert kernel_for(BipartiteGraph(num_sets=3), "words") is None
        assert isinstance(kernel_for(tiny_graph, "words"), BitsetCoverage)

    def test_cache_packs_once(self, tiny_graph, monkeypatch):
        """Sketch columns keep the kernel they pack; no backend and no rows
        pack none."""
        packed = []
        from_columns = BitsetCoverage.from_columns
        monkeypatch.setattr(
            BitsetCoverage, "from_columns", lambda *args: packed.append(args) or from_columns(*args)
        )
        columns = _columns_of(tiny_graph)
        assert columns.greedy_k_cover(4, 2) == greedy_k_cover(tiny_graph, 2)
        assert packed == []
        kernel = kernel_for(tiny_graph, "words")
        first = columns.greedy_k_cover(4, 2, coverage_backend="words")
        assert first == greedy_k_cover(tiny_graph, 2, kernel=kernel)
        assert columns.greedy_k_cover(4, 2, forbidden=[0], coverage_backend="words") == (
            greedy_k_cover(tiny_graph, 2, forbidden=[0], kernel=kernel)
        )
        assert columns.greedy_k_cover(4, 2, coverage_backend="words") == first
        assert len(packed) == 1
        empty = _columns_of(BipartiteGraph(num_sets=2))
        assert empty.greedy_k_cover(2, 1, coverage_backend="words").selected == []
        assert len(packed) == 1


class TestAgreementOnRandomInstances:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_set_based_coverage(self, seed):
        instance = uniform_random_instance(25, 120, density=0.1, seed=seed)
        fast = BitsetCoverage(instance.graph)
        rng = spawn_rng(seed, "bitset-agreement-queries")
        for _ in range(30):
            size = int(rng.integers(0, 10))
            family = list(rng.choice(25, size=size, replace=False)) if size else []
            assert fast.coverage(family) == instance.graph.coverage(family)

    def test_gains_of_every_set(self):
        instance = uniform_random_instance(15, 80, density=0.15, seed=3)
        fast = BitsetCoverage(instance.graph)
        covered_sets = [0, 1]
        covered_bits = fast.union_bits(covered_sets)
        gains = fast.gains_for(range(15), covered_bits)
        covered = instance.graph.neighbors(covered_sets)
        for set_id in range(15):
            expected = len(instance.graph.elements_of(set_id) - covered)
            assert gains[set_id] == expected

    def test_gains_for_subset_matches_full_vector(self):
        instance = uniform_random_instance(20, 100, density=0.12, seed=5)
        fast = BitsetCoverage(instance.graph)
        covered_bits = fast.union_bits(np.array([4, 9]))
        gains = fast.gains_for(range(20), covered_bits)
        subset = np.array([0, 7, 13, 19], dtype=np.intp)
        assert fast.gains_for(subset, covered_bits).tolist() == gains[subset].tolist()
        assert fast.gains_for(np.array([], dtype=np.intp), covered_bits).tolist() == []
        # Iterable (non-array) ids are accepted too.
        assert fast.gains_for([0, 7], covered_bits).tolist() == gains[[0, 7]].tolist()


class TestVectorisedGreedy:
    """``greedy_k_cover(graph, k, kernel=...)``: the shared loop on packed rows."""

    def test_matches_reference_greedy(self):
        for seed in range(3):
            instance = zipf_instance(30, 400, edges_per_set=25, k=5, seed=seed)
            result = greedy_k_cover(instance.graph, 5, kernel=BitsetCoverage(instance.graph))
            reference = greedy_k_cover(instance.graph, 5)
            assert result.selected == reference.selected
            assert result.coverage == reference.coverage
            assert instance.graph.coverage(result.selected) == result.coverage

    def test_refresh_width_sets_the_evaluation_count(self):
        # Both runs take the same steps; the kernel refreshes up to 32 stale
        # tops per vectorised call and the graph one, so their counts differ
        # and are pinned (an eager rescan would have counted 8 * 60 = 480).
        graph = zipf_instance(60, 900, edges_per_set=40, k=8, seed=11).graph
        kernel_run = greedy_k_cover(graph, 8, kernel=BitsetCoverage(graph))
        graph_run = greedy_k_cover(graph, 8)
        assert kernel_run.gains == graph_run.gains == [58, 39, 34, 32, 29, 26, 25, 25]
        assert (graph_run.evaluations, kernel_run.evaluations) == (182, 301)

    def test_forbidden_sets_are_skipped(self, tiny_graph):
        result = greedy_k_cover(tiny_graph, 4, forbidden=[2], kernel=BitsetCoverage(tiny_graph))
        assert 2 not in result.selected
        assert result.coverage == greedy_k_cover(tiny_graph, 4, forbidden=[2]).coverage

    def test_out_of_range_forbidden_ids_are_ignored(self, tiny_graph):
        # The graph greedy treats unselectable forbidden ids as no-ops; the
        # kernel must too (no negative-index masking, no IndexError).
        kernel = BitsetCoverage(tiny_graph)
        plain = greedy_k_cover(tiny_graph, 4, kernel=kernel)
        assert greedy_k_cover(tiny_graph, 4, forbidden=[-1, 99], kernel=kernel) == plain

    def test_target_coverage_stops_early(self, tiny_graph):
        result = greedy_partial_cover(tiny_graph, 0.5, kernel=BitsetCoverage(tiny_graph))
        assert result.coverage >= 3
        assert result.size == 1

    def test_stops_when_saturated(self, tiny_graph):
        result = greedy_k_cover(tiny_graph, 4, kernel=BitsetCoverage(tiny_graph))
        assert result.coverage == 6
        assert result.size <= 3

    def test_invalid_k(self, tiny_graph):
        with pytest.raises(ValueError):
            greedy_k_cover(tiny_graph, 0, kernel=BitsetCoverage(tiny_graph))

    def test_kernel_is_read_only(self, tiny_graph):
        kernel = BitsetCoverage(tiny_graph)
        greedy_k_cover(tiny_graph, 4, kernel=kernel)
        for array in (kernel.row(0), kernel.set_sizes):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


class TestPackedRows:
    def test_table_fallback_matches_native(self, tiny_graph, monkeypatch):
        """The byte-table fallback and np.bitwise_count agree everywhere."""
        fast = BitsetCoverage(tiny_graph)
        families = [[0], [1, 3], [0, 1, 2, 3]]
        native = [fast.coverage(f) for f in families]
        monkeypatch.setattr(bitset_module, "_HAS_BITWISE_COUNT", False)
        assert [fast.coverage(f) for f in families] == native
        gains = fast.gains_for(range(fast.num_sets), fast.empty_bits())
        assert gains.tolist() == fast.set_sizes.tolist()

    def test_rows_are_whole_uint64_words(self):
        instance = uniform_random_instance(10, 640, density=0.05, seed=1)
        fast = BitsetCoverage(instance.graph)
        assert fast._packed.dtype == np.uint64
        assert fast._packed.shape == (10, -(-fast.num_elements // 64))
        assert fast.empty_bits().dtype == np.uint64
        assert fast.empty_bits().shape == (fast._packed.shape[1],)
        assert fast.nbytes == fast._packed.shape[1] * 8 * 10


class TestEvaluateManyVectorised:
    def test_uniform_length_families_take_stacked_path(self):
        instance = uniform_random_instance(30, 200, density=0.08, seed=9)
        fast = BitsetCoverage(instance.graph)
        families = [[i, (i + 7) % 30, (i + 13) % 30] for i in range(30)]
        assert fast.evaluate_many(families) == [fast.coverage(f) for f in families]

    def test_two_dimensional_array_input(self):
        instance = uniform_random_instance(30, 200, density=0.08, seed=9)
        fast = BitsetCoverage(instance.graph)
        families = np.array([[i, (i + 7) % 30, (i + 13) % 30] for i in range(30)])
        expected = [fast.coverage(f) for f in families.tolist()]
        assert fast.evaluate_many(families) == expected

    def test_ragged_families_fall_back(self, tiny_graph):
        fast = BitsetCoverage(tiny_graph)
        families = [[], [0], [1, 3], [0, 1, 2, 3]]
        assert fast.evaluate_many(families) == [fast.coverage(f) for f in families]

    def test_family_entries_may_be_numpy_arrays(self, tiny_graph):
        fast = BitsetCoverage(tiny_graph)
        families = [np.array([0, 1]), np.array([2, 3])]
        assert fast.evaluate_many(families) == [fast.coverage([0, 1]), fast.coverage([2, 3])]

    def test_duplicate_ids_in_family(self, tiny_graph):
        fast = BitsetCoverage(tiny_graph)
        assert fast.evaluate_many([[2, 2], [0, 0]]) == [3, 3]

    def test_empty_input(self, tiny_graph):
        assert BitsetCoverage(tiny_graph).evaluate_many([]) == []
