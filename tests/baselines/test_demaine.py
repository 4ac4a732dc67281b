"""Unit tests for repro.baselines.demaine."""

from __future__ import annotations

import math

import pytest

from repro.baselines.demaine import DemaineSetCover
from repro.streaming.events import SetArrival
from repro.streaming.runner import StreamingRunner
from repro.streaming.stream import SetStream

from per_event import drive


class TestDemaineSetCover:
    def test_produces_full_cover(self, planted_setcover):
        algo = DemaineSetCover(planted_setcover.m, rounds=3)
        report = StreamingRunner(planted_setcover.graph).run(
            algo, SetStream.from_graph(planted_setcover.graph, order="random", seed=1)
        )
        assert report.coverage_fraction == pytest.approx(1.0)

    def test_pass_count_is_rounds_plus_one(self, planted_setcover):
        for rounds in (2, 3, 4):
            algo = DemaineSetCover(planted_setcover.m, rounds=rounds)
            report = StreamingRunner(planted_setcover.graph).run(
                algo, SetStream.from_graph(planted_setcover.graph, order="random", seed=2)
            )
            assert report.passes == rounds + 1

    def test_thresholds_follow_m_pow_1_over_r(self):
        algo = DemaineSetCover(num_elements_hint=10_000, rounds=4)
        factor = 10_000 ** (1 / 4)
        assert algo._threshold(0) == pytest.approx(10_000 / factor)
        assert algo._threshold(1) == pytest.approx(10_000 / factor**2)
        assert algo._threshold(3) == pytest.approx(1.0)

    def test_solution_size_reasonable_vs_optimum(self, planted_setcover):
        optimum = len(planted_setcover.planted_solution)
        algo = DemaineSetCover(planted_setcover.m, rounds=3)
        report = StreamingRunner(planted_setcover.graph).run(
            algo, SetStream.from_graph(planted_setcover.graph, order="random", seed=3)
        )
        # The guarantee is O(r log m) * optimum; assert with that slack.
        assert report.solution_size <= 4 * 3 * math.log(planted_setcover.m) * optimum

    def test_space_includes_ground_set(self, planted_setcover):
        algo = DemaineSetCover(planted_setcover.m, rounds=2)
        report = StreamingRunner(planted_setcover.graph).run(
            algo, SetStream.from_graph(planted_setcover.graph, order="random", seed=4)
        )
        assert report.space_peak >= planted_setcover.m * 0.9

    def test_no_duplicates(self, planted_setcover):
        algo = DemaineSetCover(planted_setcover.m, rounds=3)
        report = StreamingRunner(planted_setcover.graph).run(
            algo, SetStream.from_graph(planted_setcover.graph, order="random", seed=5)
        )
        assert len(report.solution) == len(set(report.solution))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            DemaineSetCover(0, rounds=2)
        with pytest.raises(ValueError):
            DemaineSetCover(10, rounds=0)

    def test_describe(self):
        algo = DemaineSetCover(500, rounds=3)
        info = algo.describe()
        assert info["total_passes"] == 4


class TestDemaineBatchedPath:
    """The native process_batch is byte-identical to the scalar feed."""

    def _family(self):
        # Deliberately hostile: duplicate members inside a set, empty sets,
        # repeated elements across sets, and a gap in the set ids.
        return {
            0: [1, 2, 3, 3],
            1: [3, 4],
            2: [],
            4: [0, 9, 9, 1],
            7: [5, 6, 7, 8, 0],
        }

    def _run(self, batch_size):
        sets = self._family()
        stream = SetStream(sets, order="random", seed=13)
        algo = DemaineSetCover(10, rounds=2)
        report = drive(
            StreamingRunner(stream.to_graph()),
            algo,
            SetStream(sets, order="random", seed=13),
            batch_size=batch_size,
        )
        return (
            report.solution,
            report.coverage,
            report.space_peak,
            report.passes,
            dict(algo._witness),
            sorted(algo._uncovered_known),
            sorted(algo._covered),
        )

    @pytest.mark.parametrize("batch_size", [1, 3, 7, 1024])
    def test_identical_to_scalar_feed(self, batch_size):
        assert self._run(batch_size) == self._run(None)

    def test_planted_instance_identical_across_batch_sizes(self, planted_setcover):
        reports = []
        for batch_size in (None, 1, 7, 1024):
            algo = DemaineSetCover(planted_setcover.m, rounds=3)
            report = drive(
                StreamingRunner(planted_setcover.graph),
                algo,
                SetStream.from_graph(planted_setcover.graph, order="random", seed=6),
                batch_size=batch_size,
            )
            reports.append(
                (report.solution, report.coverage, report.space_peak, report.passes)
            )
        assert all(row == reports[0] for row in reports[1:])

    def test_batch_path_rejects_edge_batches(self):
        from repro.streaming.batches import EventBatch

        algo = DemaineSetCover(10, rounds=2)
        with pytest.raises(TypeError, match="set batches"):
            algo.process_batch(EventBatch.from_edges([(0, 1)]))


class TestDemaineSparseIds:
    """Huge sparse element ids stay O(distinct) memory, scalar and batched."""

    def _family(self):
        # Ids far beyond any sane dense range (the pre-flag-array code
        # handled these with Python sets; the flag cache must not try to
        # allocate O(max id) memory for them), including ids >= 2**63 that
        # an int64 conversion would overflow (scalar) or wrap negative and
        # alias real flag slots (batched).
        huge = 3_000_000_000_000
        top = 2**64 - 1
        return {
            0: [1, 2, huge],
            1: [huge, huge + 7, 2**63],
            2: [3, huge + 7, top],
            3: [999],
        }

    def _run(self, batch_size):
        sets = self._family()
        algo = DemaineSetCover(10, rounds=2)
        report = drive(
            StreamingRunner(SetStream(sets).to_graph()),
            algo,
            SetStream(sets, order="random", seed=2),
            batch_size=batch_size,
        )
        assert algo._flags.nbytes < 10_000_000  # bounded despite huge ids
        return (report.solution, report.coverage, report.space_peak,
                report.coverage_fraction)

    @pytest.mark.parametrize("batch_size", [1, 2, 1024])
    def test_runs_and_is_batch_invariant(self, batch_size):
        reference = self._run(None)
        assert self._run(batch_size) == reference
        assert reference[-1] == pytest.approx(1.0)

    def test_scalar_path_accepts_ids_beyond_int64(self):
        algo = DemaineSetCover(4, rounds=1)
        algo.start_pass(0)
        algo.process(SetArrival(set_id=0, elements=(2**63, 1)))
        assert 2**63 in algo._uncovered_known or 2**63 in algo._covered

    def test_wraparound_id_does_not_alias_dense_flags(self):
        # 2**64 - 1 cast to int64 is -1; a negative fancy index would mark
        # the *last* dense element as known and corrupt its accounting.
        # rounds=2 makes the pass-0 threshold 10, so a singleton set is
        # *skipped* and goes through the vectorised observe path.
        from repro.streaming.batches import EventBatch

        algo = DemaineSetCover(100, rounds=2)
        algo.start_pass(0)
        algo.process_batch(EventBatch.from_sets([(0, [2**64 - 1])]))
        assert 2**64 - 1 in algo._uncovered_known
        assert not algo._flags.any()  # no dense slot was touched
