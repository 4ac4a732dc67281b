"""Unit tests for repro.baselines.emek_rosen."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.emek_rosen import ThresholdPartialSetCover
from repro.coverage.bipartite import BipartiteGraph
from repro.streaming.batches import EventBatch
from repro.streaming.runner import StreamingRunner
from repro.streaming.stream import SetStream

from per_event import drive


class TestThresholdPartialSetCover:
    def test_reaches_outlier_target(self, planted_setcover):
        algo = ThresholdPartialSetCover(planted_setcover.m, outlier_fraction=0.1, passes=3)
        report = StreamingRunner(planted_setcover.graph).run(
            algo, SetStream.from_graph(planted_setcover.graph, order="random", seed=1)
        )
        assert report.coverage_fraction >= 1 - 0.1 - 1e-9
        assert report.passes == 3

    def test_zero_outliers_gives_full_cover(self, planted_setcover):
        algo = ThresholdPartialSetCover(planted_setcover.m, outlier_fraction=0.0, passes=3)
        report = StreamingRunner(planted_setcover.graph).run(
            algo, SetStream.from_graph(planted_setcover.graph, order="random", seed=2)
        )
        assert report.coverage_fraction == pytest.approx(1.0)

    def test_single_pass_variant(self, planted_setcover):
        algo = ThresholdPartialSetCover(planted_setcover.m, outlier_fraction=0.2, passes=1)
        report = StreamingRunner(planted_setcover.graph).run(
            algo, SetStream.from_graph(planted_setcover.graph, order="random", seed=3)
        )
        assert report.passes == 1
        assert report.coverage_fraction >= 1 - 0.2 - 1e-9

    def test_space_tracks_ground_set(self, planted_setcover):
        algo = ThresholdPartialSetCover(planted_setcover.m, outlier_fraction=0.1, passes=2)
        report = StreamingRunner(planted_setcover.graph).run(
            algo, SetStream.from_graph(planted_setcover.graph, order="random", seed=4)
        )
        # O~(m) behaviour: it stores at least the whole universe.
        assert report.space_peak >= planted_setcover.m

    def test_threshold_schedule_decreasing(self):
        algo = ThresholdPartialSetCover(1000, outlier_fraction=0.1, passes=4)
        thresholds = [algo._threshold(j) for j in range(4)]
        assert all(a >= b for a, b in zip(thresholds, thresholds[1:]))
        assert thresholds[-1] >= 1.0

    def test_no_duplicate_selections(self, planted_setcover):
        algo = ThresholdPartialSetCover(planted_setcover.m, outlier_fraction=0.05, passes=3)
        report = StreamingRunner(planted_setcover.graph).run(
            algo, SetStream.from_graph(planted_setcover.graph, order="random", seed=5)
        )
        assert len(report.solution) == len(set(report.solution))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            ThresholdPartialSetCover(0, 0.1)
        with pytest.raises(ValueError):
            ThresholdPartialSetCover(10, 1.5)
        with pytest.raises(ValueError):
            ThresholdPartialSetCover(10, 0.1, passes=0)

    def test_describe(self):
        algo = ThresholdPartialSetCover(100, 0.1, passes=2)
        info = algo.describe()
        assert info["algorithm"] == "threshold-partial-cover"
        assert info["passes"] == 2


def _witness_heavy_graph() -> BipartiteGraph:
    """A graph engineered so the outcome hinges on witness bookkeeping.

    One giant set clears every threshold; a tail of tiny overlapping sets
    never does, so the final cover must be patched from witnesses — the
    exact state the batched observe path maintains vectorised.  The tiny
    sets overlap pairwise, making the patch sensitive to *which* set each
    element witnessed first.
    """
    graph = BipartiteGraph(12)
    for element in range(40):
        graph.add_edge(0, element)
    # Tiny sets: set 1+i holds elements {40+i, 41+i, 42+i} — heavy overlap.
    for i in range(11):
        for offset in range(3):
            graph.add_edge(1 + i, 40 + i + offset)
    return graph


class TestProcessBatchEquivalence:
    """Hostile cases for the native CSR threshold prefilter."""

    def _run(self, graph, batch_size, *, passes=3, outlier_fraction=0.05, seed=7):
        algo = ThresholdPartialSetCover(
            max(1, graph.num_elements), outlier_fraction, passes=passes
        )
        stream = SetStream.from_graph(graph, order="random", seed=seed)
        report = drive(StreamingRunner(graph), algo, stream, batch_size=batch_size)
        return report, algo

    def test_rejects_edge_batches(self):
        algo = ThresholdPartialSetCover(10, 0.1)
        edge_batch = EventBatch(set_ids=np.array([0]), elements=np.array([1]))
        with pytest.raises(TypeError):
            algo.process_batch(edge_batch)

    @pytest.mark.parametrize("batch_size", (1, 7, 1024))
    def test_witness_state_matches_scalar(self, batch_size):
        """Internal state (not just the report) is byte-identical."""
        graph = _witness_heavy_graph()
        scalar_report, scalar_algo = self._run(graph, None)
        batched_report, batched_algo = self._run(graph, batch_size)
        assert batched_report.solution == scalar_report.solution
        assert batched_report.coverage == scalar_report.coverage
        assert batched_report.space_peak == scalar_report.space_peak
        assert batched_algo._witness == scalar_algo._witness
        assert batched_algo._covered == scalar_algo._covered
        assert batched_algo._universe == scalar_algo._universe

    @pytest.mark.parametrize("batch_size", (1, 7, 1024))
    def test_all_below_threshold_single_pass(self, batch_size):
        """A batch that is one long skipped run still observes everything."""
        graph = BipartiteGraph(8)
        for set_id in range(8):
            graph.add_edge(set_id, set_id)
            graph.add_edge(set_id, (set_id + 1) % 8)
        scalar_report, scalar_algo = self._run(
            graph, None, passes=1, outlier_fraction=0.5
        )
        batched_report, batched_algo = self._run(
            graph, batch_size, passes=1, outlier_fraction=0.5
        )
        assert batched_report.solution == scalar_report.solution
        assert batched_algo._witness == scalar_algo._witness
        assert batched_report.space_peak == scalar_report.space_peak

    def test_prefilter_never_skips_acceptable_sets(self):
        """Every set at/above the threshold goes through the exact path."""
        graph = _witness_heavy_graph()
        for batch_size in (1, 7, 1024):
            batched_report, _ = self._run(graph, batch_size)
            scalar_report, _ = self._run(graph, None)
            # The giant set must be selected under both drive modes.
            assert 0 in batched_report.solution
            assert batched_report.solution == scalar_report.solution
