"""Integration tests checking Theorem 2.7's composition property in practice:

running an offline α-approximation on the sketch is nearly as good as running
it on the full input — for greedy, local search and the exact solver alike.
"""

from __future__ import annotations

import math

import pytest

from repro.core.params import SketchParams
from repro.core.sketch import build_h_leq_n
from repro.core.streaming_sketch import StreamingSketchBuilder
from repro.datasets import planted_kcover_instance, zipf_instance
from repro.offline.exact import exact_k_cover
from repro.offline.greedy import greedy_k_cover
from repro.offline.local_search import local_search_k_cover
from repro.streaming.batches import EventBatch


@pytest.fixture(scope="module")
def medium_instance():
    return planted_kcover_instance(70, 3000, k=5, planted_coverage=0.9, seed=13)


def _sketch(instance, budget, cap, seed=1):
    params = SketchParams.explicit(
        instance.n, instance.m, instance.k, 0.2, edge_budget=budget, degree_cap=cap
    )
    builder = StreamingSketchBuilder(params, seed=seed)
    builder.process_batch(EventBatch.from_edges(instance.graph.edges()))
    return builder.sketch()


class TestCompositionProperty:
    def test_greedy_on_sketch_close_to_greedy_on_input(self, medium_instance):
        sketch = _sketch(medium_instance, budget=1200, cap=40)
        on_sketch = greedy_k_cover(sketch.graph, 5).selected
        on_input = greedy_k_cover(medium_instance.graph, 5).coverage
        achieved = medium_instance.graph.coverage(on_sketch)
        assert achieved >= 0.85 * on_input

    def test_local_search_on_sketch(self, medium_instance):
        sketch = _sketch(medium_instance, budget=1200, cap=40)
        solution = local_search_k_cover(sketch.graph, 5, seed=2).selected
        achieved = medium_instance.graph.coverage(solution)
        reference = greedy_k_cover(medium_instance.graph, 5).coverage
        assert achieved >= 0.5 * reference

    def test_exact_on_sketch_of_small_instance(self):
        instance = planted_kcover_instance(14, 400, k=3, seed=17)
        sketch = _sketch(instance, budget=250, cap=10, seed=3)
        solution, _ = exact_k_cover(sketch.graph, 3)
        achieved = instance.graph.coverage(solution)
        _, optimum = exact_k_cover(instance.graph, 3)
        assert achieved >= (1 - 0.35) * optimum

    def test_estimator_accuracy_across_solutions(self, medium_instance):
        """Lemma 2.2: 1/p |Γ(H_p, S)| approximates C(S) for many families."""
        sketch = _sketch(medium_instance, budget=1500, cap=40, seed=4)
        rng_families = [
            list(range(i, i + 5)) for i in range(0, 50, 5)
        ]
        errors = []
        for family in rng_families:
            truth = medium_instance.graph.coverage(family)
            estimate = sketch.estimate_coverage(family)
            if truth:
                errors.append(abs(estimate - truth) / medium_instance.planted_value)
        assert max(errors) < 0.25

    def test_offline_and_streaming_sketch_give_similar_quality(self, medium_instance):
        params = SketchParams.explicit(
            medium_instance.n, medium_instance.m, 5, 0.2, edge_budget=1000, degree_cap=30
        )
        offline = build_h_leq_n(medium_instance.graph, params, seed=5)
        builder = StreamingSketchBuilder(params, seed=5)
        builder.process_batch(EventBatch.from_edges(medium_instance.graph.edges()))
        streaming = builder.sketch()
        value_offline = medium_instance.graph.coverage(greedy_k_cover(offline.graph, 5).selected)
        value_streaming = medium_instance.graph.coverage(
            greedy_k_cover(streaming.graph, 5).selected
        )
        assert abs(value_offline - value_streaming) <= 0.1 * medium_instance.planted_value

    def test_quality_improves_with_budget(self):
        instance = zipf_instance(60, 2500, edges_per_set=50, k=5, seed=19)
        reference = greedy_k_cover(instance.graph, 5).coverage
        qualities = []
        for budget in (150, 600, 2400):
            sketch = _sketch(instance, budget=budget, cap=25, seed=7)
            solution = greedy_k_cover(sketch.graph, 5).selected
            qualities.append(instance.graph.coverage(solution) / reference)
        # Larger budgets should never hurt much and the largest should be best.
        assert qualities[-1] >= qualities[0] - 0.02
        assert qualities[-1] >= 0.9

    def test_epsilon_guarantee_shape(self, medium_instance):
        """The (1 − 1/e − ε) end-to-end bound of Theorem 3.1 holds with room."""
        sketch = _sketch(medium_instance, budget=900, cap=30, seed=8)
        solution = greedy_k_cover(sketch.graph, 5).selected
        achieved = medium_instance.graph.coverage(solution)
        _, reference = exact_k_cover(medium_instance.graph, 5) if medium_instance.n <= 20 else (
            None,
            medium_instance.planted_value,
        )
        assert achieved >= (1 - 1 / math.e - 0.2) * reference
