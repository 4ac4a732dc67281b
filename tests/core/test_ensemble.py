"""Unit tests for repro.core.ensemble."""

from __future__ import annotations

import pytest

from repro.core.ensemble import EnsembleKCover, SketchEnsemble
from repro.core.params import SketchParams
from repro.offline.greedy import greedy_k_cover
from repro.streaming.batches import EventBatch
from repro.streaming.runner import StreamingRunner
from repro.streaming.stream import EdgeStream


def _params(instance, budget=800, cap=30):
    return SketchParams.explicit(
        instance.n, instance.m, instance.k, 0.2, edge_budget=budget, degree_cap=cap
    )


class TestSketchEnsemble:
    def test_replica_count_and_space(self, planted_kcover):
        ensemble = SketchEnsemble(_params(planted_kcover), replicas=3, seed=1)
        ensemble.process_batch(EventBatch.from_edges(planted_kcover.graph.edges()))
        sketches = ensemble.sketches()
        assert len(sketches) == 3
        assert ensemble.space.peak == pytest.approx(
            sum(s.num_edges for s in sketches), rel=0.2
        )

    def test_replicas_use_independent_hashes(self, planted_kcover):
        ensemble = SketchEnsemble(_params(planted_kcover, budget=300), replicas=3, seed=1)
        ensemble.process_batch(EventBatch.from_edges(planted_kcover.graph.edges()))
        element_sets = [frozenset(s.graph.elements()) for s in ensemble.sketches()]
        assert len(set(element_sets)) > 1  # different replicas sample different elements

    def test_median_estimate_close_to_truth(self, planted_kcover):
        ensemble = SketchEnsemble(_params(planted_kcover), replicas=5, seed=2)
        ensemble.process_batch(EventBatch.from_edges(planted_kcover.graph.edges()))
        family = list(range(4))
        truth = planted_kcover.graph.coverage(family)
        assert ensemble.estimate_coverage(family) == pytest.approx(truth, rel=0.3)
        assert ensemble.estimate_total_elements() == pytest.approx(planted_kcover.m, rel=0.3)

    def test_best_k_cover_quality(self, planted_kcover):
        ensemble = SketchEnsemble(_params(planted_kcover), replicas=3, seed=3)
        ensemble.process_batch(EventBatch.from_edges(planted_kcover.graph.edges()))
        solution, estimate = ensemble.best_k_cover(4)
        achieved = planted_kcover.graph.coverage(solution)
        reference = greedy_k_cover(planted_kcover.graph, 4).coverage
        assert achieved >= 0.85 * reference
        assert estimate > 0

    def test_sketches_cache_invalidated_on_new_edge(self, planted_kcover):
        ensemble = SketchEnsemble(_params(planted_kcover), replicas=2, seed=4)
        edges = list(planted_kcover.graph.edges())
        ensemble.process_batch(EventBatch.from_edges(edges[:10]))
        first = ensemble.sketches()
        ensemble.add_edge(*edges[10])
        assert ensemble.sketches() is not first

    def test_describe(self, planted_kcover):
        ensemble = SketchEnsemble(_params(planted_kcover), replicas=2, seed=5)
        ensemble.process_batch(EventBatch.from_edges(planted_kcover.graph.edges()))
        info = ensemble.describe()
        assert info["replicas"] == 2
        assert len(info["thresholds"]) == 2

    def test_invalid_replicas(self, planted_kcover):
        with pytest.raises(ValueError):
            SketchEnsemble(_params(planted_kcover), replicas=0)


class TestEnsembleKCover:
    def test_protocol_run(self, planted_kcover):
        algo = EnsembleKCover(
            planted_kcover.n, planted_kcover.m, k=4, epsilon=0.3, replicas=3,
            params=_params(planted_kcover), seed=1,
        )
        report = StreamingRunner(planted_kcover.graph).run(
            algo, EdgeStream.from_graph(planted_kcover.graph, order="random", seed=1)
        )
        assert report.passes == 1
        assert report.solution_size <= 4
        reference = greedy_k_cover(planted_kcover.graph, 4).coverage
        assert report.coverage >= 0.85 * reference

    def test_space_scales_with_replicas(self, planted_kcover):
        peaks = []
        for replicas in (1, 3):
            algo = EnsembleKCover(
                planted_kcover.n, planted_kcover.m, k=4, replicas=replicas,
                params=_params(planted_kcover, budget=300), seed=2,
            )
            report = StreamingRunner(planted_kcover.graph).run(
                algo, EdgeStream.from_graph(planted_kcover.graph, order="random", seed=2)
            )
            peaks.append(report.space_peak)
        assert peaks[1] >= 2.5 * peaks[0]

    def test_describe(self, planted_kcover):
        algo = EnsembleKCover(planted_kcover.n, planted_kcover.m, k=3, replicas=2, seed=3)
        assert algo.describe()["algorithm"] == "bateni-sketch-kcover-ensemble"

    def test_invalid_k(self, planted_kcover):
        with pytest.raises(ValueError):
            EnsembleKCover(planted_kcover.n, planted_kcover.m, k=0)
