"""Unit tests for repro.core.setcover (Algorithm 6)."""

from __future__ import annotations

import math

import pytest

from repro.core.setcover import StreamingSetCover, outlier_rate_for_passes
from repro.datasets import planted_setcover_instance
from repro.offline.greedy import greedy_set_cover
from repro.streaming.batches import EventBatch
from repro.streaming.events import EdgeArrival
from repro.streaming.runner import StreamingRunner
from repro.streaming.stream import EdgeStream


class TestOutlierRate:
    def test_formula(self):
        assert outlier_rate_for_passes(100_000, 3) == pytest.approx(100_000 ** (-1 / 5))

    def test_clamped_to_inverse_e(self):
        assert outlier_rate_for_passes(10, 1) <= 1 / math.e + 1e-12

    def test_more_rounds_means_larger_rate(self):
        assert outlier_rate_for_passes(10**6, 5) > outlier_rate_for_passes(10**6, 2)

    def test_invalid(self):
        with pytest.raises(ValueError):
            outlier_rate_for_passes(0, 2)


class TestStreamingSetCover:
    def _run(self, instance, rounds=3, epsilon=0.5, seed=1, **kwargs):
        algo = StreamingSetCover(
            instance.n, instance.m, epsilon=epsilon, rounds=rounds, seed=seed,
            max_guesses=kwargs.pop("max_guesses", 10), **kwargs
        )
        runner = StreamingRunner(instance.graph)
        report = runner.run(
            algo, EdgeStream.from_graph(instance.graph, order="random", seed=seed)
        )
        return algo, report

    def test_full_coverage(self, planted_setcover):
        _, report = self._run(planted_setcover)
        assert report.coverage_fraction == pytest.approx(1.0)

    def test_pass_count_matches_plan(self, planted_setcover):
        algo, report = self._run(planted_setcover, rounds=3)
        assert report.passes == algo.planned_passes == 2 * (3 - 1) + 1

    def test_single_round_is_one_pass_greedy(self, planted_setcover):
        algo, report = self._run(planted_setcover, rounds=1)
        assert report.passes == 1
        assert report.coverage_fraction == pytest.approx(1.0)
        greedy = greedy_set_cover(planted_setcover.graph)
        assert report.solution_size == greedy.size

    def test_solution_size_within_log_m_of_optimum(self, planted_setcover):
        optimum = len(planted_setcover.planted_solution)
        _, report = self._run(planted_setcover, epsilon=0.5)
        assert report.solution_size <= (1 + 0.5) * math.log(planted_setcover.m) * optimum

    def test_solution_contains_no_duplicates(self, planted_setcover):
        _, report = self._run(planted_setcover)
        assert len(report.solution) == len(set(report.solution))

    def test_more_rounds_not_worse_coverage(self):
        instance = planted_setcover_instance(40, 800, cover_size=8, seed=6)
        _, few = self._run(instance, rounds=2, seed=6)
        _, many = self._run(instance, rounds=4, seed=6)
        assert few.coverage_fraction == pytest.approx(1.0)
        assert many.coverage_fraction == pytest.approx(1.0)

    def test_describe_keys(self, planted_setcover):
        algo, _ = self._run(planted_setcover)
        info = algo.describe()
        assert info["algorithm"] == "bateni-sketch-setcover"
        assert info["finalized"] is True
        assert info["planned_passes"] == algo.planned_passes

    def test_current_phase_progression(self, planted_setcover):
        algo = StreamingSetCover(
            planted_setcover.n, planted_setcover.m, rounds=2, max_guesses=5, seed=2
        )
        phases = []
        stream = EdgeStream.from_graph(planted_setcover.graph, order="random", seed=2)
        pass_index = 0
        while True:
            phases.append(algo.current_phase()[0])
            algo.start_pass(pass_index)
            for event in stream:
                algo.process(event)
            algo.finish_pass(pass_index)
            pass_index += 1
            if not algo.wants_another_pass():
                break
        assert phases == ["sketch", "mark", "collect"]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            StreamingSetCover(10, 100, rounds=0)
        with pytest.raises(ValueError):
            StreamingSetCover(0, 100)

    def test_space_reported(self, planted_setcover):
        algo, report = self._run(planted_setcover)
        assert report.space_peak > 0

    @pytest.mark.parametrize("batched", [False, True])
    def test_mark_pass_matches_no_out_of_range_set(self, batched):
        """Both mark passes look set ids up in a mask of the chosen sets
        whose last slot is never set, so an id at or past ``num_sets``
        matches nothing.  ``EdgeArrival`` does not validate ids, so a
        negative id reaches the per-event pass (a batch's ``uint64`` column
        cannot hold one); it must not index the mask from its end, where -2
        would read set 4 and -6 set 0."""
        algo = StreamingSetCover(5, 20, rounds=3)
        algo._extend_solution([0, 4])
        algo._phase_index = 1
        assert algo.current_phase() == ("mark", 2)
        algo.start_pass(1)
        set_ids = [0, 5, 4, 2**63, 2**64 - 1, 6, 1, 4, 2]
        batch = EventBatch(set_ids, range(len(set_ids)))
        if batched:
            algo.process_batch(batch)
        else:
            for event in batch.iter_events():
                algo.process(event)
            for set_id in (-2, -6):
                algo.process(EdgeArrival(set_id, 9))
        assert algo._covered == {0, 2, 7}
