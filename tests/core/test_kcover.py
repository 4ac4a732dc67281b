"""Unit tests for repro.core.kcover (Algorithm 3)."""

from __future__ import annotations

import math

import pytest

from repro.core.kcover import StreamingKCover, default_kcover_params
from repro.core.params import SketchParams
from repro.coverage.bitset import kernel_for
from repro.datasets import planted_kcover_instance, zipf_instance
from repro.offline.greedy import greedy_k_cover
from repro.streaming.runner import StreamingRunner
from repro.streaming.stream import EdgeStream


class TestDefaultParams:
    def test_epsilon_divided_by_twelve(self):
        params = default_kcover_params(100, 1000, 5, 0.24, mode="scaled")
        assert params.epsilon == pytest.approx(0.02)

    def test_delta_prime_is_two_plus_log_n(self):
        params = default_kcover_params(100, 1000, 5, 0.24, mode="scaled")
        assert params.delta_prime == pytest.approx(2 + math.log(100))

    def test_theoretical_mode(self):
        params = default_kcover_params(100, 1000, 5, 0.5, mode="theoretical")
        assert params.mode == "theoretical"

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            default_kcover_params(100, 1000, 5, 0.5, mode="magic")


class TestStreamingKCover:
    def test_single_pass_and_solution_size(self, planted_kcover):
        algo = StreamingKCover(planted_kcover.n, planted_kcover.m, k=4, epsilon=0.3, seed=1)
        runner = StreamingRunner(planted_kcover.graph)
        report = runner.run(
            algo, EdgeStream.from_graph(planted_kcover.graph, order="random", seed=1)
        )
        assert report.passes == 1
        assert report.solution_size <= 4
        assert report.arrival_model == "edge"

    def test_matches_offline_greedy_when_sketch_holds_everything(self, planted_kcover):
        # With a huge budget the sketch is the input, so the result must be
        # exactly the offline greedy's coverage.
        params = SketchParams.explicit(
            planted_kcover.n, planted_kcover.m, 4, 0.1, edge_budget=10**6, degree_cap=10**6
        )
        algo = StreamingKCover(planted_kcover.n, planted_kcover.m, k=4, params=params, seed=1)
        for event in EdgeStream.from_graph(planted_kcover.graph, order="random", seed=1):
            algo.process(event)
        algo.finish_pass(0)
        solution = algo.result()
        assert planted_kcover.graph.coverage(solution) == greedy_k_cover(
            planted_kcover.graph, 4
        ).coverage

    def test_quality_with_restricted_space(self):
        instance = planted_kcover_instance(80, 4000, k=5, planted_coverage=0.9, seed=3)
        params = SketchParams.explicit(
            instance.n, instance.m, 5, 0.2, edge_budget=1500, degree_cap=40
        )
        algo = StreamingKCover(instance.n, instance.m, k=5, params=params, seed=3)
        report = StreamingRunner(instance.graph).run(
            algo, EdgeStream.from_graph(instance.graph, order="random", seed=3)
        )
        reference = greedy_k_cover(instance.graph, 5).coverage
        # 1 - 1/e - eps would be ~0.43; the sketch does far better in practice,
        # but assert the theorem's bound with slack.
        assert report.coverage >= (1 - 1 / math.e - 0.2) * reference
        # Peak transient space: the budget, the eviction slack, plus the one
        # edge admitted immediately before an eviction round.
        assert report.space_peak <= params.edge_budget + params.eviction_slack + 1

    def test_space_independent_of_m(self):
        """The headline claim: space depends on n, not on m."""
        peaks = []
        for m in (2000, 8000):
            instance = planted_kcover_instance(60, m, k=4, seed=5)
            params = SketchParams.explicit(
                instance.n, instance.m, 4, 0.2, edge_budget=800, degree_cap=30
            )
            algo = StreamingKCover(instance.n, instance.m, k=4, params=params, seed=5)
            report = StreamingRunner(instance.graph).run(
                algo, EdgeStream.from_graph(instance.graph, order="random", seed=5)
            )
            peaks.append(report.space_peak)
        assert max(peaks) <= 800 + params.eviction_slack + 1

    def test_result_is_cached(self, planted_kcover):
        algo = StreamingKCover(planted_kcover.n, planted_kcover.m, k=3, seed=2)
        for event in EdgeStream.from_graph(planted_kcover.graph, order="random", seed=2):
            algo.process(event)
        algo.finish_pass(0)
        assert algo.result() is algo.result()

    def test_estimated_coverage_close_to_actual(self, planted_kcover):
        algo = StreamingKCover(planted_kcover.n, planted_kcover.m, k=4, epsilon=0.3, seed=4)
        for event in EdgeStream.from_graph(planted_kcover.graph, order="random", seed=4):
            algo.process(event)
        algo.finish_pass(0)
        actual = planted_kcover.graph.coverage(algo.result())
        assert algo.estimated_coverage() == pytest.approx(actual, rel=0.35)

    def test_custom_solver_is_used(self, planted_kcover):
        calls = []

        def stub_solver(graph, k):
            calls.append(k)
            return list(range(k))

        algo = StreamingKCover(
            planted_kcover.n, planted_kcover.m, k=3, seed=1, solver=stub_solver
        )
        algo.finish_pass(0)
        assert algo.result() == [0, 1, 2]
        assert calls == [3]

    def test_zipf_instance_handles_degree_cap(self):
        instance = zipf_instance(50, 1500, edges_per_set=60, k=5, seed=9)
        params = SketchParams.explicit(
            instance.n, instance.m, 5, 0.2, edge_budget=1000, degree_cap=10
        )
        algo = StreamingKCover(instance.n, instance.m, k=5, params=params, seed=9)
        report = StreamingRunner(instance.graph).run(
            algo, EdgeStream.from_graph(instance.graph, order="random", seed=9)
        )
        reference = greedy_k_cover(instance.graph, 5).coverage
        assert report.coverage >= 0.5 * reference

    def test_wants_single_pass(self, planted_kcover):
        algo = StreamingKCover(planted_kcover.n, planted_kcover.m, k=2)
        assert algo.wants_another_pass() is False

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            StreamingKCover(10, 100, k=0)
        with pytest.raises(ValueError):
            StreamingKCover(10, 100, k=2, epsilon=0.0)

    def test_describe_contains_sketch_info(self, planted_kcover):
        algo = StreamingKCover(planted_kcover.n, planted_kcover.m, k=2, seed=1)
        info = algo.describe()
        assert info["algorithm"] == "bateni-sketch-kcover"
        assert "edge_budget" in info and "stored_edges" in info


class TestResultReadsColumns:
    """``result()`` runs the greedy on the builder's columns; it must select
    exactly what the greedy on ``sketch().graph`` selects."""

    @staticmethod
    def _graph_path(algo: StreamingKCover, forbidden, backend) -> list[int]:
        graph = algo.sketch().graph
        selected = greedy_k_cover(
            graph, algo.k, forbidden=forbidden, kernel=kernel_for(graph, backend)
        ).selected
        return selected[: algo.k]

    @pytest.mark.parametrize("backend", [None, "words"])
    @pytest.mark.parametrize("forbidden", [(), (0, 3, 7), tuple(range(0, 60, 2))])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_evicting_stream_matches_graph_greedy(self, backend, forbidden, seed):
        instance = zipf_instance(60, 2000, edges_per_set=50, k=5, seed=seed)
        params = SketchParams.explicit(
            instance.n, instance.m, 5, 0.2, edge_budget=300, degree_cap=8
        )
        algo = StreamingKCover(
            instance.n,
            instance.m,
            k=5,
            params=params,
            seed=seed,
            coverage_backend=backend,
            forbidden=forbidden,
        )
        StreamingRunner(instance.graph).run(
            algo, EdgeStream.from_graph(instance.graph, order="random", seed=seed)
        )
        assert algo.describe()["evictions"] > 0
        assert algo.result() == self._graph_path(algo, forbidden, backend)

    @pytest.mark.parametrize("backend", [None, "words"])
    def test_full_sketch_matches_graph_greedy(self, planted_kcover, backend):
        algo = StreamingKCover(
            planted_kcover.n, planted_kcover.m, k=4, seed=5, coverage_backend=backend
        )
        StreamingRunner(planted_kcover.graph).run(
            algo, EdgeStream.from_graph(planted_kcover.graph, order="random", seed=5)
        )
        assert algo.result() == self._graph_path(algo, (), backend)

    @pytest.mark.parametrize("backend", [None, "words"])
    def test_empty_sketch(self, backend):
        algo = StreamingKCover(10, 100, k=3, coverage_backend=backend, forbidden=[1])
        algo.finish_pass(0)
        assert algo.result() == self._graph_path(algo, [1], backend) == []

    def test_result_builds_no_graph(self, planted_kcover, monkeypatch):
        algo = StreamingKCover(planted_kcover.n, planted_kcover.m, k=4, seed=1)
        StreamingRunner(planted_kcover.graph).run(
            algo, EdgeStream.from_graph(planted_kcover.graph, order="random", seed=1)
        )
        solution = list(algo.result())
        algo._solution = None

        def no_sketch():
            raise AssertionError("result() built the sketch graph")

        monkeypatch.setattr(algo, "sketch", no_sketch)
        assert algo.result() == solution
