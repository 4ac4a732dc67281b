"""Unit tests for repro.baselines.harpeled."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.harpeled import HarPeledSetCover
from repro.coverage.bipartite import BipartiteGraph
from repro.streaming.batches import EventBatch
from repro.streaming.runner import StreamingRunner
from repro.streaming.stream import SetStream

from per_event import drive


class TestHarPeledSetCover:
    def test_produces_full_cover(self, planted_setcover):
        algo = HarPeledSetCover(planted_setcover.m, passes=4)
        report = StreamingRunner(planted_setcover.graph).run(
            algo, SetStream.from_graph(planted_setcover.graph, order="random", seed=1)
        )
        assert report.coverage_fraction == pytest.approx(1.0)

    def test_pass_count_respected(self, planted_setcover):
        for passes in (2, 3, 5):
            algo = HarPeledSetCover(planted_setcover.m, passes=passes)
            report = StreamingRunner(planted_setcover.graph).run(
                algo, SetStream.from_graph(planted_setcover.graph, order="random", seed=2)
            )
            assert report.passes == passes

    def test_guess_doubles_when_progress_stalls(self, planted_setcover):
        algo = HarPeledSetCover(planted_setcover.m, passes=4, initial_guess=1)
        StreamingRunner(planted_setcover.graph).run(
            algo, SetStream.from_graph(planted_setcover.graph, order="random", seed=3)
        )
        assert algo.describe()["final_guess"] >= 1

    def test_solution_size_reasonable(self, planted_setcover):
        import math

        optimum = len(planted_setcover.planted_solution)
        algo = HarPeledSetCover(planted_setcover.m, passes=4)
        report = StreamingRunner(planted_setcover.graph).run(
            algo, SetStream.from_graph(planted_setcover.graph, order="random", seed=4)
        )
        assert report.solution_size <= 4 * math.log(planted_setcover.m) * optimum + 4

    def test_space_includes_ground_set(self, planted_setcover):
        algo = HarPeledSetCover(planted_setcover.m, passes=3)
        report = StreamingRunner(planted_setcover.graph).run(
            algo, SetStream.from_graph(planted_setcover.graph, order="random", seed=5)
        )
        assert report.space_peak >= planted_setcover.m * 0.9

    def test_no_duplicates(self, planted_setcover):
        algo = HarPeledSetCover(planted_setcover.m, passes=3)
        report = StreamingRunner(planted_setcover.graph).run(
            algo, SetStream.from_graph(planted_setcover.graph, order="random", seed=6)
        )
        assert len(report.solution) == len(set(report.solution))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            HarPeledSetCover(0)
        with pytest.raises(ValueError):
            HarPeledSetCover(10, passes=0)
        with pytest.raises(ValueError):
            HarPeledSetCover(10, passes=2, initial_guess=0)


def _witness_heavy_graph() -> BipartiteGraph:
    """A graph whose final patch pass hinges on witness bookkeeping.

    One giant set clears every threshold; a tail of tiny overlapping sets
    never does, so the final cover must be patched from witnesses — the
    exact state the batched observe path maintains vectorised.  The tiny
    sets overlap pairwise, making the patch sensitive to *which* set each
    element witnessed first.
    """
    graph = BipartiteGraph(12)
    for element in range(40):
        graph.add_edge(0, element)
    for i in range(11):
        for offset in range(3):
            graph.add_edge(1 + i, 40 + i + offset)
    return graph


class TestProcessBatchEquivalence:
    """Hostile cases for the native CSR threshold prefilter."""

    def _run(self, graph, batch_size, *, passes=4, seed=7):
        algo = HarPeledSetCover(max(1, graph.num_elements), passes=passes)
        stream = SetStream.from_graph(graph, order="random", seed=seed)
        report = drive(StreamingRunner(graph), algo, stream, batch_size=batch_size)
        return report, algo

    def test_rejects_edge_batches(self):
        algo = HarPeledSetCover(10)
        edge_batch = EventBatch(set_ids=np.array([0]), elements=np.array([1]))
        with pytest.raises(TypeError):
            algo.process_batch(edge_batch)

    @pytest.mark.parametrize("batch_size", (1, 7, 1024))
    def test_internal_state_matches_scalar(self, batch_size, planted_setcover):
        """Internal state (not just the report) is byte-identical."""
        graph = planted_setcover.graph
        scalar_report, scalar_algo = self._run(graph, None)
        batched_report, batched_algo = self._run(graph, batch_size)
        assert batched_report.solution == scalar_report.solution
        assert batched_report.coverage == scalar_report.coverage
        assert batched_report.space_peak == scalar_report.space_peak
        assert batched_algo._witness == scalar_algo._witness
        assert batched_algo._covered == scalar_algo._covered
        assert batched_algo._universe == scalar_algo._universe
        assert batched_algo._guess == scalar_algo._guess
        assert batched_algo._selected == scalar_algo._selected
        assert batched_algo.describe() == scalar_algo.describe()

    @pytest.mark.parametrize("batch_size", (1, 7, 1024))
    def test_witness_patch_matches_scalar(self, batch_size):
        """The final-pass witness collapse records first-event-wins owners."""
        graph = _witness_heavy_graph()
        scalar_report, scalar_algo = self._run(graph, None)
        batched_report, batched_algo = self._run(graph, batch_size)
        assert batched_report.solution == scalar_report.solution
        assert batched_algo._witness == scalar_algo._witness
        assert batched_report.space_peak == scalar_report.space_peak

    @pytest.mark.parametrize("batch_size", (1, 7, 1024))
    def test_single_pass_collapses_to_one_observation(self, batch_size):
        """passes=1 makes every batch a pure witness/universe observation."""
        graph = _witness_heavy_graph()
        scalar_report, scalar_algo = self._run(graph, None, passes=1)
        batched_report, batched_algo = self._run(graph, batch_size, passes=1)
        assert batched_report.solution == scalar_report.solution
        assert batched_algo._witness == scalar_algo._witness
        assert batched_algo._universe == scalar_algo._universe

    def test_prefilter_never_skips_acceptable_sets(self):
        """Every set at/above the threshold goes through the exact path."""
        graph = _witness_heavy_graph()
        scalar_report, _ = self._run(graph, None)
        for batch_size in (1, 7, 1024):
            batched_report, _ = self._run(graph, batch_size)
            # The giant set must be selected under both drive modes.
            assert 0 in batched_report.solution
            assert batched_report.solution == scalar_report.solution
