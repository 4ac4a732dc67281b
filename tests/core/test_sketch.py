"""Unit tests for repro.core.sketch (offline H_p, H'_p, H_{<=n})."""

from __future__ import annotations

import pytest

from repro.core.hashing import UniformHash
from repro.core.params import SketchParams
from repro.core.sketch import (
    CoverageSketch,
    apply_degree_cap,
    build_h_leq_n,
    build_hp,
    build_hp_prime,
)
from repro.offline.greedy import greedy_k_cover


class FixedHash:
    """Hash stub assigning prescribed values (for deterministic tests)."""

    def __init__(self, values: dict[int, float], default: float = 0.99) -> None:
        self.values_map = values
        self.default = default

    def value(self, element: int) -> float:
        return self.values_map.get(element, self.default)

    def rank(self, element: int) -> int:
        return int(self.value(element) * (2**64))


class TestBuildHp:
    def test_p_one_keeps_everything(self, figure1_graph):
        hp = build_hp(figure1_graph, 1.0, UniformHash(3))
        assert hp.num_edges == figure1_graph.num_edges
        assert hp.num_elements == figure1_graph.num_elements

    def test_keeps_exactly_elements_below_threshold(self, figure1_graph):
        hash_fn = UniformHash(5)
        p = 0.5
        hp = build_hp(figure1_graph, p, hash_fn)
        expected = {e for e in figure1_graph.elements() if hash_fn.value(e) <= p}
        assert set(hp.elements()) == expected

    def test_all_sets_preserved(self, figure1_graph):
        hp = build_hp(figure1_graph, 0.3, UniformHash(1))
        assert hp.num_sets == figure1_graph.num_sets

    def test_figure1_example_with_fixed_hashes(self, figure1_graph):
        # Mirror Figure 1: half the elements hash below p = 0.5.
        hashes = {0: 0.1, 1: 0.7, 2: 0.3, 3: 0.9, 4: 0.2, 5: 0.8, 6: 0.4, 7: 0.6}
        hp = build_hp(figure1_graph, 0.5, FixedHash(hashes))
        assert set(hp.elements()) == {0, 2, 4, 6}

    def test_invalid_p(self, figure1_graph):
        with pytest.raises(ValueError):
            build_hp(figure1_graph, 0.0)
        with pytest.raises(ValueError):
            build_hp(figure1_graph, 1.5)

    def test_monotone_in_p(self, planted_kcover):
        hash_fn = UniformHash(11)
        small = build_hp(planted_kcover.graph, 0.2, hash_fn)
        large = build_hp(planted_kcover.graph, 0.6, hash_fn)
        assert set(small.elements()) <= set(large.elements())
        assert small.num_edges <= large.num_edges


class TestDegreeCap:
    def test_cap_enforced(self, figure1_graph):
        capped, truncated = apply_degree_cap(figure1_graph, 2)
        for element in capped.elements():
            assert capped.element_degree(element) <= 2
        # Elements 3 and 5 have degree 3 in the original graph.
        assert truncated == frozenset({3, 5})

    def test_cap_no_op_when_large(self, figure1_graph):
        capped, truncated = apply_degree_cap(figure1_graph, 10)
        assert capped == figure1_graph
        assert truncated == frozenset()

    def test_deterministic_keeps_smallest_set_ids(self, figure1_graph):
        capped, _ = apply_degree_cap(figure1_graph, 1)
        for element in capped.elements():
            owners = capped.sets_of(element)
            original = figure1_graph.sets_of(element)
            assert owners == frozenset({min(original)})

    def test_invalid_cap(self, figure1_graph):
        with pytest.raises(ValueError):
            apply_degree_cap(figure1_graph, 0)


class TestBuildHpPrime:
    def test_returns_coverage_sketch(self, figure1_graph):
        params = SketchParams.explicit(4, 8, 2, 0.5, edge_budget=100, degree_cap=2)
        sketch = build_hp_prime(figure1_graph, 0.8, params, UniformHash(2))
        assert isinstance(sketch, CoverageSketch)
        assert sketch.threshold == 0.8
        for element in sketch.graph.elements():
            assert sketch.graph.element_degree(element) <= 2

    def test_subgraph_of_hp(self, figure1_graph):
        hash_fn = UniformHash(2)
        params = SketchParams.explicit(4, 8, 2, 0.5, edge_budget=100, degree_cap=2)
        hp = build_hp(figure1_graph, 0.8, hash_fn)
        sketch = build_hp_prime(figure1_graph, 0.8, params, hash_fn)
        assert set(sketch.graph.elements()) == set(hp.elements())
        assert sketch.num_edges <= hp.num_edges


class TestBuildHLeqN:
    def test_budget_respected_up_to_one_element(self, planted_kcover):
        params = SketchParams.explicit(
            planted_kcover.n, planted_kcover.m, 4, 0.3, edge_budget=200, degree_cap=10
        )
        sketch = build_h_leq_n(planted_kcover.graph, params, UniformHash(3))
        # Algorithm 1 stops once the budget is reached; the final element may
        # overshoot by at most its capped degree.
        assert sketch.num_edges <= 200 + 10
        assert sketch.num_edges >= min(200, planted_kcover.num_edges)

    def test_keeps_lowest_hash_elements(self, planted_kcover):
        hash_fn = UniformHash(3)
        params = SketchParams.explicit(
            planted_kcover.n, planted_kcover.m, 4, 0.3, edge_budget=150, degree_cap=10
        )
        sketch = build_h_leq_n(planted_kcover.graph, params, hash_fn)
        kept = set(sketch.graph.elements())
        threshold = sketch.threshold
        for element in planted_kcover.graph.elements():
            if hash_fn.value(element) < threshold and element not in kept:
                pytest.fail("an element below the threshold was not admitted")

    def test_whole_input_fits(self, figure1_graph):
        params = SketchParams.explicit(4, 8, 2, 0.5, edge_budget=1000, degree_cap=100)
        sketch = build_h_leq_n(figure1_graph, params, UniformHash(1))
        assert sketch.threshold == 1.0
        assert sketch.num_edges == figure1_graph.num_edges

    def test_degree_cap_applied(self, figure1_graph):
        params = SketchParams.explicit(4, 8, 2, 0.5, edge_budget=1000, degree_cap=1)
        sketch = build_h_leq_n(figure1_graph, params, UniformHash(1))
        assert all(sketch.graph.element_degree(e) == 1 for e in sketch.graph.elements())
        assert len(sketch.truncated_elements) > 0

    def test_hashes_recorded_for_admitted_elements(self, figure1_graph):
        hash_fn = UniformHash(9)
        params = SketchParams.explicit(4, 8, 2, 0.5, edge_budget=6, degree_cap=3)
        sketch = build_h_leq_n(figure1_graph, params, hash_fn)
        for element, value in sketch.element_hashes.items():
            assert value == hash_fn.value(element)
        assert set(sketch.element_hashes) == set(sketch.graph.elements())


class TestCoverageSketchMethods:
    @pytest.fixture
    def sketch(self, planted_kcover) -> CoverageSketch:
        params = SketchParams.explicit(
            planted_kcover.n, planted_kcover.m, 4, 0.3, edge_budget=400, degree_cap=20
        )
        return build_h_leq_n(planted_kcover.graph, params, UniformHash(5))

    def test_estimate_coverage_close_to_truth(self, planted_kcover, sketch):
        solution = greedy_k_cover(planted_kcover.graph, 4).selected
        estimate = sketch.estimate_coverage(solution)
        truth = planted_kcover.graph.coverage(solution)
        assert estimate == pytest.approx(truth, rel=0.35)

    def test_estimate_total_elements(self, planted_kcover, sketch):
        estimate = sketch.estimate_total_elements()
        assert estimate == pytest.approx(planted_kcover.m, rel=0.35)

    def test_sketch_coverage_counts_sketch_elements(self, sketch):
        value = sketch.sketch_coverage(list(sketch.graph.set_ids()))
        assert value == sketch.num_elements

    def test_coverage_fraction_bounds(self, sketch):
        assert 0.0 <= sketch.coverage_fraction([0]) <= 1.0
        assert sketch.coverage_fraction(list(sketch.graph.set_ids())) == pytest.approx(1.0)

    def test_describe(self, sketch):
        info = sketch.describe()
        assert info["edges"] == sketch.num_edges
        assert info["degree_cap"] == sketch.params.degree_cap

    def test_empty_threshold_estimate(self, figure1_graph):
        params = SketchParams.explicit(4, 8, 2, 0.5, edge_budget=10, degree_cap=3)
        sketch = CoverageSketch(
            graph=figure1_graph.copy(), params=params, threshold=0.0, element_hashes={}
        )
        assert sketch.estimate_coverage([0]) == 0.0
        assert sketch.estimate_total_elements() == 0.0
