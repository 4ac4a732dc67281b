"""Unit tests for repro.baselines.mcgregor_vu."""

from __future__ import annotations

import math

import pytest

from repro.baselines.mcgregor_vu import McGregorVuKCover
from repro.datasets import planted_kcover_instance
from repro.offline.greedy import greedy_k_cover
from repro.streaming.runner import StreamingRunner
from repro.streaming.stream import EdgeStream

from per_event import drive


class TestMcGregorVu:
    def test_single_pass_edge_arrival(self, planted_kcover):
        algo = McGregorVuKCover(planted_kcover.n, planted_kcover.m, k=4, epsilon=0.2, seed=1)
        report = StreamingRunner(planted_kcover.graph).run(
            algo, EdgeStream.from_graph(planted_kcover.graph, order="random", seed=1)
        )
        assert report.passes == 1
        assert report.arrival_model == "edge"
        assert report.solution_size <= 4

    def test_quality_close_to_greedy(self):
        instance = planted_kcover_instance(60, 3000, k=5, seed=2)
        algo = McGregorVuKCover(instance.n, instance.m, k=5, epsilon=0.3, seed=2)
        report = StreamingRunner(instance.graph).run(
            algo, EdgeStream.from_graph(instance.graph, order="random", seed=2)
        )
        reference = greedy_k_cover(instance.graph, 5).coverage
        assert report.coverage >= (1 - 1 / math.e - 0.3) * reference

    def test_number_of_guesses_logarithmic_in_m(self):
        algo = McGregorVuKCover(50, 10_000, k=3, epsilon=0.2)
        assert algo.num_guesses() <= math.ceil(math.log2(10_000)) + 2

    def test_result_cached(self, planted_kcover):
        algo = McGregorVuKCover(planted_kcover.n, planted_kcover.m, k=3, seed=3)
        for event in EdgeStream.from_graph(planted_kcover.graph, order="random", seed=3):
            algo.process(event)
        assert algo.result() is algo.result()

    def test_space_charged(self, planted_kcover):
        algo = McGregorVuKCover(planted_kcover.n, planted_kcover.m, k=3, seed=4)
        report = StreamingRunner(planted_kcover.graph).run(
            algo, EdgeStream.from_graph(planted_kcover.graph, order="random", seed=4)
        )
        assert report.space_peak > 0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            McGregorVuKCover(0, 10, 2)
        with pytest.raises(ValueError):
            McGregorVuKCover(10, 10, 0)
        with pytest.raises(ValueError):
            McGregorVuKCover(10, 10, 2, epsilon=0.0)

    def test_describe(self):
        algo = McGregorVuKCover(10, 100, 2, seed=1)
        info = algo.describe()
        assert info["algorithm"] == "mcgregor-vu-sampling"
        assert info["guesses"] == algo.num_guesses()


class TestNativeBatchPath:
    """process_batch (value_many-prefiltered sampling test) equals scalar."""

    @pytest.mark.parametrize("batch_size", [1, 7, 256])
    def test_batched_run_is_byte_identical(self, planted_kcover, batch_size):
        def run(batch):
            algo = McGregorVuKCover(planted_kcover.n, planted_kcover.m, k=4, seed=2)
            report = drive(
                StreamingRunner(planted_kcover.graph),
                algo,
                EdgeStream.from_graph(planted_kcover.graph, order="random", seed=3),
                batch_size=batch,
            )
            return report, algo

        scalar_report, scalar_algo = run(None)
        batched_report, batched_algo = run(batch_size)
        assert batched_report.solution == scalar_report.solution
        assert batched_report.space_peak == scalar_report.space_peak
        assert [s.graph.num_edges for s in batched_algo._guesses] == [
            s.graph.num_edges for s in scalar_algo._guesses
        ]
        assert [s.overflowed for s in batched_algo._guesses] == [
            s.overflowed for s in scalar_algo._guesses
        ]

    def test_rejects_set_batches(self):
        from repro.streaming.batches import EventBatch

        algo = McGregorVuKCover(4, 10, k=2)
        with pytest.raises(TypeError, match="edge batches"):
            algo.process_batch(EventBatch.from_sets([(0, (1, 2))]))
