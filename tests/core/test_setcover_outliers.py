"""Unit tests for repro.core.setcover_outliers (Algorithms 4 and 5)."""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest

from repro.core import setcover_outliers, sketch_columns
from repro.core.setcover_outliers import (
    GuessOutcome,
    StreamingSetCoverOutliers,
    _guess_plan,
    check_guess,
    guess_schedule,
)
from repro.core.params import SketchParams
from repro.core.setcover import StreamingSetCover
from repro.core.streaming_sketch import StreamingSketchBuilder
from repro.coverage.bipartite import BipartiteGraph
from repro.coverage.bitset import BitsetCoverage, kernel_for
from repro.datasets import planted_setcover_instance
from repro.offline.greedy import greedy_k_cover
from repro.streaming.events import EdgeArrival
from repro.streaming.runner import StreamingRunner
from repro.streaming.stream import EdgeStream
from repro.utils.rng import spawn_rng

from per_event import drive


class TestGuessSchedule:
    def test_starts_at_one_and_ends_at_n(self):
        schedule = guess_schedule(100, 0.6)
        assert schedule[0] == 1
        assert schedule[-1] == 100

    def test_strictly_increasing(self):
        schedule = guess_schedule(500, 0.3)
        assert all(a < b for a, b in zip(schedule, schedule[1:]))

    def test_geometric_growth_rate(self):
        schedule = guess_schedule(10_000, 0.9)
        # Later ratios approach 1 + eps/3 = 1.3.
        ratios = [b / a for a, b in zip(schedule[-5:], schedule[-4:])]
        assert all(r <= 1.31 + 1e-9 for r in ratios)

    def test_number_of_guesses_logarithmic(self):
        schedule = guess_schedule(1000, 0.5)
        assert len(schedule) <= math.ceil(math.log(1000, 1 + 0.5 / 3)) + 2

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            guess_schedule(0, 0.5)
        with pytest.raises(ValueError):
            guess_schedule(10, 0.0)

    def test_each_call_returns_a_fresh_list(self):
        schedule = guess_schedule(100, 0.3)
        expected = list(schedule)
        schedule.append(1000)
        schedule[0] = 7
        assert guess_schedule(100, 0.3) == expected
        assert guess_schedule(100, 0.3) is not guess_schedule(100, 0.3)
        assert StreamingSetCoverOutliers(100, 2000, 0.1, 0.3).guesses() == expected

    def test_invalid_arguments_raise_after_a_valid_call(self):
        assert guess_schedule(1, 0.5) == [1]
        for _ in range(2):
            with pytest.raises(TypeError):
                guess_schedule(True, 0.5)
            with pytest.raises(ValueError):
                guess_schedule(1, 1.5)


def _plan(guess, lambda_prime=0.1, num_sets=10, num_elements=100, *, mode="scaled", scale=1.0):
    """Algorithm 4's plan of ``guess`` at ``ε' = 0.2`` and ``C' = 1``."""
    return _guess_plan(guess, 0.2, lambda_prime, 1.0, num_sets, num_elements, mode, scale)


def _guess_rows(algorithm):
    """``(guess, plan, builder)`` of every guess of ``algorithm``'s table."""
    table = algorithm._table
    return [
        (guess, plan, algorithm._builders[index])
        for guess, plan, index in zip(table.guesses, table.plans, table.builder_of)
    ]


class TestCheckGuess:
    def _check(self, instance, guess, lambda_prime):
        plan = _plan(guess, lambda_prime, instance.n, instance.m)
        builder = StreamingSketchBuilder(plan.params, seed=1)
        for set_id, element in instance.graph.edges():
            builder.process(EdgeArrival(set_id, element))
        return plan, check_guess(guess, plan, builder.columns())

    def test_accepts_when_guess_is_large_enough(self, planted_setcover):
        plan, outcome = self._check(
            planted_setcover, len(planted_setcover.planted_solution), 0.1
        )
        assert outcome.accepted
        assert len(outcome.solution) <= plan.budget_k
        assert outcome.sketch_fraction >= outcome.required_fraction - 1e-12

    def test_rejects_hopeless_guess(self, planted_setcover):
        _, outcome = self._check(planted_setcover, 1, 0.05)
        # One set (plus log(1/λ') slack) cannot cover 95% of a 6-set partition.
        assert not outcome.accepted

    def test_budget_k_is_guess_times_log(self):
        plan = _plan(4, num_sets=50, num_elements=500)
        assert plan.budget_k == math.ceil(4 * math.log(10))
        assert plan.required == 1.0 - 0.1 - plan.epsilon * math.log(10)

    def test_invalid_lambda(self):
        with pytest.raises(ValueError, match="lambda_prime"):
            _plan(2, 0.9)

    def test_invalid_arguments_raise_after_a_valid_call(self):
        """The memoised plan caches no error, and ``True`` is no ``1``."""
        _plan(1, num_elements=1)
        for _ in range(2):
            with pytest.raises(TypeError):
                _plan(True, num_elements=1)
            with pytest.raises(TypeError):
                _plan(1, num_elements=True)
            with pytest.raises(ValueError, match="num_elements"):
                _plan(1, num_elements=0)
            with pytest.raises(ValueError, match="scale"):
                _plan(1, num_elements=1, scale=0.0)


class TestStreamingSetCoverOutliers:
    def _run(self, instance, lam=0.1, epsilon=0.5, seed=1, **kwargs):
        algo = StreamingSetCoverOutliers(
            instance.n, instance.m, outlier_fraction=lam, epsilon=epsilon, seed=seed, **kwargs
        )
        runner = StreamingRunner(instance.graph)
        report = runner.run(
            algo, EdgeStream.from_graph(instance.graph, order="random", seed=seed)
        )
        return algo, report

    def test_single_pass_and_coverage_target(self, planted_setcover):
        algo, report = self._run(planted_setcover, lam=0.1)
        assert report.passes == 1
        # Must cover at least 1 - λ of the elements (with small slack for the
        # scaled sketch constants).
        assert report.coverage_fraction >= 1 - 0.1 - 0.05

    def test_solution_size_near_optimal(self, planted_setcover):
        optimum = len(planted_setcover.planted_solution)
        algo, report = self._run(planted_setcover, lam=0.1, epsilon=0.5)
        bound = (1 + 0.5) * math.log(1 / (0.1 * math.exp(-0.25))) * optimum
        assert report.solution_size <= math.ceil(bound) + 1

    def test_accepted_guess_close_to_optimum(self, planted_setcover):
        optimum = len(planted_setcover.planted_solution)
        algo, _ = self._run(planted_setcover, lam=0.1, epsilon=0.5)
        accepted = algo.accepted_guess()
        assert accepted is not None
        assert accepted <= (1 + 0.5 / 3) * optimum + 1

    def test_guesses_increasing(self, planted_setcover):
        algo, _ = self._run(planted_setcover)
        guesses = list(algo.guesses())
        assert all(a < b for a, b in zip(guesses, guesses[1:]))

    def test_max_guesses_limits_work(self, planted_setcover):
        algo = StreamingSetCoverOutliers(
            planted_setcover.n, planted_setcover.m, 0.1, 0.5, max_guesses=3
        )
        assert len(algo.guesses()) == 3

    @pytest.mark.parametrize("max_guesses", [0, -1])
    @pytest.mark.parametrize("cls", [StreamingSetCoverOutliers, StreamingSetCover])
    def test_max_guesses_must_be_positive(self, cls, max_guesses):
        # 0 used to build no guesses (result() hit an IndexError) and -1
        # silently dropped the last guess.
        with pytest.raises(ValueError, match="max_guesses"):
            cls(40, 600, 0.1, max_guesses=max_guesses)

    def test_outcomes_cached(self, planted_setcover):
        algo, _ = self._run(planted_setcover)
        assert algo.outcomes() is algo.outcomes()

    def test_result_deduplicated(self, planted_setcover):
        algo, report = self._run(planted_setcover)
        assert len(report.solution) == len(set(report.solution))

    def test_invalid_lambda_rejected(self):
        with pytest.raises(ValueError):
            StreamingSetCoverOutliers(10, 100, outlier_fraction=0.5)

    def test_describe_keys(self, planted_setcover):
        algo, _ = self._run(planted_setcover)
        info = algo.describe()
        assert info["algorithm"] == "bateni-sketch-setcover-outliers"
        assert info["num_guesses"] == len(algo.guesses())
        # describe() walks the cascade only up to the first accept.
        accepted_index = list(algo.guesses()).index(info["accepted_guess"])
        assert info["guesses_checked"] == accepted_index + 1 < info["num_guesses"]

    def test_larger_lambda_allows_fewer_sets(self):
        instance = planted_setcover_instance(50, 900, cover_size=10, seed=4)
        _, strict = self._run(instance, lam=0.05, epsilon=0.5, seed=4)
        _, loose = self._run(instance, lam=0.3, epsilon=0.5, seed=4)
        assert loose.solution_size <= strict.solution_size


class TestLazyCascade:
    """Algorithm 5 checks guesses only up to the first accept."""

    def _run(self, instance, seed=1, batch_size=None, **kwargs):
        algo = StreamingSetCoverOutliers(
            instance.n, instance.m, outlier_fraction=0.1, epsilon=0.5, seed=seed, **kwargs
        )
        stream = EdgeStream.from_graph(instance.graph, order="random", seed=seed)
        drive(StreamingRunner(instance.graph), algo, stream, batch_size=batch_size)
        return algo

    @pytest.mark.parametrize("seed", range(5))
    def test_result_is_the_first_accepted_outcome(self, seed):
        instance = planted_setcover_instance(40, 600, cover_size=6, seed=seed)
        algo = self._run(instance, seed=seed)
        solution, guess = algo.result(), algo.accepted_guess()
        first = next(o for o in algo.outcomes() if o.accepted)
        assert guess == first.guess
        assert solution == list(dict.fromkeys(first.solution))
        assert algo.query()[0] == solution

    def test_all_rejected_falls_back_to_the_last_guess(self):
        # Twenty disjoint sets: covering 90% takes 18 of them, more than
        # the greedy budget of any of the first three guesses.
        graph = BipartiteGraph.from_sets([range(10 * s, 10 * s + 10) for s in range(20)])
        instance = SimpleNamespace(graph=graph, n=20, m=200)
        algo = self._run(instance, max_guesses=3)
        assert algo.accepted_guess() is None
        assert algo.describe()["guesses_checked"] == 3
        outcomes = algo.outcomes()
        assert not any(o.accepted for o in outcomes)
        assert algo.result() == list(dict.fromkeys(outcomes[-1].solution))

    def test_checks_stop_at_the_first_accept(self, planted_setcover, monkeypatch):
        checks = []
        check = setcover_outliers.check_guess

        def counted(guess, *args, **kwargs):
            checks.append(guess)
            return check(guess, *args, **kwargs)

        monkeypatch.setattr(setcover_outliers, "check_guess", counted)
        algo = self._run(planted_setcover)  # the runner reads result()
        accepted_index = list(algo.guesses()).index(algo.accepted_guess())
        assert len(checks) == accepted_index + 1 < len(algo.guesses())
        algo.outcomes()
        assert checks == list(algo.guesses())  # each guess checked once

    def test_unchecked_guesses_never_build_a_graph(self, planted_setcover, monkeypatch):
        inserts = []
        from_element_sets = BipartiteGraph.from_element_sets

        def counted(num_sets, owners):
            inserts.append(len(owners))
            return from_element_sets(num_sets, owners)

        monkeypatch.setattr(BipartiteGraph, "from_element_sets", counted)
        # One batch holds the whole instance, so each guess admits it in bulk;
        # a check reads its builder's columns, so no guess builds a graph.
        algo = self._run(planted_setcover, batch_size=4096)  # reads result()
        checked = algo.describe()["guesses_checked"]
        assert checked < len(algo.guesses())
        algo.outcomes()
        assert inserts == []


def _graph_path_outcome(guess, plan, builder, lambda_prime, forbidden, backend) -> GuessOutcome:
    """Algorithm 4 on ``sketch().graph``: the check before it read columns."""
    sketch = builder.sketch()
    result = greedy_k_cover(
        sketch.graph,
        plan.budget_k,
        forbidden=forbidden,
        kernel=kernel_for(sketch.graph, backend),
    )
    fraction = sketch.coverage_fraction(result.selected)
    required = 1.0 - lambda_prime - plan.epsilon * math.log(1.0 / lambda_prime)
    return GuessOutcome(
        guess=guess,
        accepted=fraction >= required - 1e-12,
        solution=result.selected,
        sketch_fraction=fraction,
        required_fraction=required,
        sketch_edges=sketch.num_edges,
    )


class TestCheckReadsColumns:
    """Every ``GuessOutcome`` field, down to the exact float fraction, equals
    what the check computed on the sketch graph."""

    @pytest.mark.parametrize("backend", [None, "words"])
    @pytest.mark.parametrize("forbidden", [(), (0, 2, 5)])
    @pytest.mark.parametrize("seed", [1, 4])
    def test_every_guess_matches_graph_path(self, backend, forbidden, seed):
        instance = planted_setcover_instance(40, 900, cover_size=6, seed=seed)
        algo = StreamingSetCoverOutliers(
            instance.n,
            instance.m,
            outlier_fraction=0.1,
            epsilon=0.5,
            seed=seed,
            coverage_backend=backend,
            forbidden=forbidden,
        )
        StreamingRunner(instance.graph).run(
            algo, EdgeStream.from_graph(instance.graph, order="random", seed=seed)
        )
        lam = algo.lambda_prime
        for (guess, plan, builder), outcome in zip(
            _guess_rows(algo), algo.outcomes(), strict=True
        ):
            assert outcome == _graph_path_outcome(guess, plan, builder, lam, forbidden, backend)
            for other in ((), [1, 3]):
                assert check_guess(
                    guess, plan, builder.columns(), forbidden=other, coverage_backend=backend
                ) == _graph_path_outcome(guess, plan, builder, lam, other, backend)

    @pytest.mark.parametrize("backend", [None, "words"])
    @pytest.mark.parametrize("guess", [1, 3, 8])
    @pytest.mark.parametrize("seed", [2, 5])
    def test_evicting_sketch_matches_graph_path(self, backend, guess, seed):
        # Explicit budgets, with a degree cap far below num_sets.
        instance = planted_setcover_instance(40, 3000, cover_size=6, seed=seed)
        plan = _plan(guess, num_sets=instance.n, num_elements=instance.m)
        plan = plan._replace(
            params=SketchParams.explicit(
                instance.n, instance.m, plan.budget_k, 0.2, edge_budget=250, degree_cap=6
            )
        )
        builder = StreamingSketchBuilder(plan.params, seed=seed)
        stream = EdgeStream.from_graph(instance.graph, order="random", seed=seed)
        for batch in stream.iter_batches(512):
            builder.process_batch(batch)
            outcome = check_guess(
                guess, plan, builder.columns(), forbidden=[0], coverage_backend=backend
            )
            assert outcome == _graph_path_outcome(guess, plan, builder, 0.1, [0], backend)
        assert builder.evictions > 0
        assert outcome.sketch_edges < instance.graph.num_edges

    @pytest.mark.parametrize("backend", [None, "words"])
    def test_empty_sketch(self, backend):
        plan = _plan(2)
        builder = StreamingSketchBuilder(plan.params)
        outcome = check_guess(2, plan, builder.columns(), coverage_backend=backend)
        assert outcome == _graph_path_outcome(2, plan, builder, 0.1, (), backend)
        assert (outcome.sketch_fraction, outcome.sketch_edges) == (1.0, 0)


class TestScaledGuessesSubsample:
    """Algorithm 4 clamps its degree cap and eviction slack to ``num_sets``,
    so a scaled guess sketch evicts instead of keeping the whole input."""

    def test_clamped_params(self):
        plan = _plan(3, num_sets=40, num_elements=3000)
        unclamped = SketchParams.scaled(
            40, 3000, plan.budget_k, max(plan.epsilon, 1e-3),
            delta_prime=plan.params.delta_prime,
        )
        assert unclamped.degree_cap > 40
        assert plan.params.degree_cap == plan.params.eviction_slack == 40
        assert plan.params.edge_budget == unclamped.edge_budget

    def test_small_scale_evicts(self):
        instance = planted_setcover_instance(40, 3000, cover_size=6, seed=1)
        algo = StreamingSetCoverOutliers(40, 3000, 0.1, scale=0.002, seed=1)
        report = StreamingRunner(instance.graph).run(
            algo, EdgeStream.from_graph(instance.graph, order="random", seed=1)
        )
        for _, plan, builder in _guess_rows(algo):
            params = plan.params
            assert builder.evictions > 0
            assert builder.stored_edges < instance.graph.num_edges
            assert builder.stored_edges <= params.edge_budget + params.eviction_slack
        # One builder serves every guess, so the meter peaks at one store.
        assert algo.describe()["sketch_builders"] == 1
        assert algo.space.peak <= algo._table.plans[0].params.edge_budget + 40 + 1
        assert report.coverage_fraction >= 1 - 0.1 - 0.05


def _feed(algorithm, graph, seed, batch_size):
    """One pass of ``graph``'s random-order stream (``batch_size=None``: per
    event); returns the stream's length."""
    stream = EdgeStream.from_graph(graph, order="random", seed=seed)
    drive(StreamingRunner(graph), algorithm, stream, batch_size=batch_size)
    return stream.num_events


def _sketch(builder):
    """A builder's columns and counters."""
    columns = builder.columns()
    return (
        columns.ranks.tolist(),
        columns.elements.tolist(),
        columns.set_ids.tolist(),
        columns.threshold,
        columns.truncated.tolist(),
        builder.describe(),
    )


def _state(algorithm):
    """Every guess's sketch, and the meter's peak."""
    return [_sketch(builder) for _, _, builder in _guess_rows(algorithm)], algorithm.space.peak


class TestSharedBuilders:
    """Guesses whose sketch budgets agree share one builder."""

    @pytest.fixture(scope="class")
    def workload(self):
        """The ``setcover-multipass`` instance: 100 sets, 2000 elements."""
        return planted_setcover_instance(100, 2000, cover_size=6, seed=1)

    @pytest.mark.parametrize("batch_size", [None, 4096])
    def test_one_builder_stores_the_input_once(self, workload, batch_size):
        graph = workload.graph
        algo = StreamingSetCoverOutliers(100, 2000, 0.1, 0.3, seed=1)
        events = _feed(algo, graph, 1, batch_size)
        assert len(algo.guesses()) == 35
        assert algo.space.peak == graph.num_edges == events
        info = algo.describe()
        assert (info["sketch_builders"], info["stored_edges"]) == (1, graph.num_edges)
        # Fed per event, each edge reaches the shared builder once.
        assert algo._builders[0].describe()["edges_seen"] == events

    @pytest.mark.parametrize("scale", [1.0, 0.002])
    def test_each_guess_equals_a_standalone_check(self, workload, scale):
        graph = workload.graph
        algo = StreamingSetCoverOutliers(100, 2000, 0.1, 0.3, scale=scale, seed=2)
        _feed(algo, graph, 2, 1024)
        for forbidden in ((), (0, 3, 7)):
            outcomes = algo.query(forbidden=forbidden)[1]
            for (guess, _, builder), outcome in zip(_guess_rows(algo), outcomes, strict=True):
                plan = _guess_plan(
                    guess,
                    max(algo.epsilon_prime, 1e-4),
                    algo.lambda_prime,
                    algo.confidence_prime,
                    100,
                    2000,
                    "scaled",
                    scale,
                )
                alone = StreamingSketchBuilder(plan.params, seed=2)
                stream = EdgeStream.from_graph(graph, order="random", seed=2)
                for batch in stream.iter_batches(1024):
                    alone.process_batch(batch)
                assert check_guess(guess, plan, alone.columns(), forbidden=forbidden) == outcome
                # One builder alone on the meter: even the peaks agree.
                assert _sketch(alone) == _sketch(builder)
        assert (algo._builders[0].evictions > 0) == (scale < 1.0)

    @pytest.mark.parametrize("own", [0, 3])
    def test_query_reads_one_columns_object_per_builder(self, workload, monkeypatch, own):
        """``own``: how many of the last guesses get a builder of their own.
        ``query()`` builds no sketch: each builder's guesses read one
        :class:`SketchColumns`."""
        graph = workload.graph
        algo = StreamingSetCoverOutliers(100, 2000, 0.1, 0.3, seed=3)
        table = algo._table
        builder_of = list(table.builder_of)
        for index in range(len(builder_of) - own, len(builder_of)):
            builder_of[index] = len(algo._builders)
            algo._builders.append(
                StreamingSketchBuilder(table.plans[index].params, seed=3, space=algo.space)
            )
        algo._table = table._replace(builder_of=tuple(builder_of))
        _feed(algo, graph, 3, 4096)
        sketched, read = [], {}
        columns = StreamingSketchBuilder.columns

        def counted(builder):
            result = columns(builder)
            read.setdefault(builder, set()).add(id(result))
            return result

        monkeypatch.setattr(StreamingSketchBuilder, "sketch", lambda b: sketched.append(b))
        monkeypatch.setattr(StreamingSketchBuilder, "columns", counted)
        first = algo.query()
        algo.query(forbidden=[1])
        assert sketched == []
        assert list(read) == algo._builders and len(read) == 1 + own
        assert all(len(objects) == 1 for objects in read.values())
        assert algo.query() == first

    @pytest.mark.parametrize("backend", [None, "words"])
    def test_query_builds_no_graph(self, workload, monkeypatch, backend):
        algo = StreamingSetCoverOutliers(100, 2000, 0.1, coverage_backend=backend, seed=1)
        _feed(algo, workload.graph, 1, 4096)
        graphs = []
        init = BipartiteGraph.__init__
        monkeypatch.setattr(
            BipartiteGraph,
            "__init__",
            lambda graph, *args, **kwargs: graphs.append(args) or init(graph, *args, **kwargs),
        )
        first = algo.query()
        algo.query(forbidden=(0, 3), coverage_backend=None)
        assert algo.query() == first
        assert graphs == []

    def test_one_kernel_per_builder(self, workload, monkeypatch):
        """A builder's columns pack their kernel once, for the cascade and
        every later query."""
        packed = []
        from_columns = BitsetCoverage.from_columns
        monkeypatch.setattr(
            BitsetCoverage, "from_columns", lambda *args: packed.append(args) or from_columns(*args)
        )
        algo = StreamingSetCoverOutliers(100, 2000, 0.1, coverage_backend="words", seed=1)
        _feed(algo, workload.graph, 1, 4096)
        assert len(algo._builders) == 1
        outcomes = algo.outcomes()
        assert algo.query()[1] == outcomes
        algo.query(forbidden=(0, 3))
        assert len(packed) == 1
        columns = algo._builders[0].columns()
        first = columns.greedy_k_cover(100, 5, coverage_backend="words")
        assert columns.greedy_k_cover(100, 5, coverage_backend="words") == first
        graph = algo._builders[0].sketch().graph
        assert first == greedy_k_cover(graph, 5, kernel=kernel_for(graph, "words"))
        assert len(packed) == 1

    @pytest.mark.parametrize(
        "mode,scale", [("scaled", 1.0), ("scaled", 0.002), ("theoretical", 1.0)]
    )
    def test_the_table_equals_standalone_plans(self, mode, scale):
        """Algorithm 5 takes each guess's parameters from the memoised
        table; a plan computed alone, with the memo cleared, is the same."""
        algo = StreamingSetCoverOutliers(100, 2000, 0.1, 0.3, mode=mode, scale=scale, seed=2)
        _guess_plan.cache_clear()
        for guess, plan, _ in _guess_rows(algo):
            alone = _guess_plan(
                guess,
                max(algo.epsilon_prime, 1e-4),
                algo.lambda_prime,
                algo.confidence_prime,
                100,
                2000,
                mode,
                scale,
            )
            assert alone is not plan and alone == plan

    def test_solves_differing_in_seed_share_one_table(self, workload):
        """The table is looked up, not rebuilt; the builders are each
        solve's own."""
        algo = StreamingSetCoverOutliers(100, 2000, 0.1, 0.3, seed=2)
        again = StreamingSetCoverOutliers(100, 2000, 0.1, 0.3, seed=9)
        assert again._table is algo._table
        assert len(again._builders) == len(algo._builders) == 1
        assert again._builders[0] is not algo._builders[0]
        assert again._builders[0].space is again.space is not algo.space
        _feed(algo, workload.graph, 2, 4096)
        assert again.describe()["stored_edges"] == 0

    def test_invalid_arguments_raise_after_a_valid_call(self):
        StreamingSetCoverOutliers(10, 1, 0.1)
        for _ in range(2):
            with pytest.raises(TypeError):
                StreamingSetCoverOutliers(10, True, 0.1)
            with pytest.raises(ValueError, match="num_elements"):
                StreamingSetCoverOutliers(10, 0, 0.1)
            with pytest.raises(ValueError, match="scale"):
                StreamingSetCoverOutliers(10, 1, 0.1, scale=-1.0)
            with pytest.raises(ValueError, match="lambda_prime"):
                StreamingSetCoverOutliers(10, 1, 1e-9)
            with pytest.raises(ValueError, match="max_guesses"):
                StreamingSetCoverOutliers(10, 1, 0.1, max_guesses=0)
            StreamingSetCoverOutliers(10, 1, 0.1, max_guesses=1)
            with pytest.raises(TypeError, match="max_guesses"):
                StreamingSetCoverOutliers(10, 1, 0.1, max_guesses=True)

    @pytest.mark.parametrize("scale", [1.0, 0.002])
    def test_a_check_between_batches_reads_the_new_store(self, workload, scale):
        """A check before the stream ends reads the store as it is then; a
        check after the next batch must not reuse those columns."""
        batches = list(
            EdgeStream.from_graph(workload.graph, order="random", seed=4).iter_batches(1024)
        )

        def fed(count):
            algo = StreamingSetCoverOutliers(100, 2000, 0.1, 0.3, scale=scale, seed=4)
            for batch in batches[:count]:
                algo.process_batch(batch)
            return algo

        def checks(algo, forbidden=()):
            return [
                check_guess(guess, plan, builder.columns(), forbidden=forbidden)
                for guess, plan, builder in _guess_rows(algo)
            ]

        algo = fed(1)
        assert checks(algo) == checks(fed(1))
        for batch in batches[1:]:
            algo.process_batch(batch)
        fresh = fed(len(batches))
        assert checks(algo) == checks(fresh)
        assert checks(algo, (0, 1)) == checks(fresh, (0, 1))
        assert algo.outcomes() == fresh.outcomes()

    @pytest.fixture
    def built(self, monkeypatch):
        """The arguments of every CSR by set that sketch columns build."""
        calls = []
        csr = sketch_columns._set_major_csr
        monkeypatch.setattr(
            sketch_columns, "_set_major_csr", lambda *args: calls.append(args) or csr(*args)
        )
        return calls

    @pytest.mark.parametrize("num_sets", [100, 4000])
    def test_one_csr_per_builder_state(self, workload, built, num_sets):
        """Every check of a cascade reads its builder's columns, and the
        CSR by set is built once per builder and store state."""
        graph = workload.graph
        if num_sets != 100:
            graph = BipartiteGraph.from_element_sets(
                num_sets, {e: {e % num_sets, (7 * e) % num_sets} for e in range(3000)}
            )
        algo = StreamingSetCoverOutliers(num_sets, 3000, 0.1, 0.3, seed=5)
        batches = list(EdgeStream.from_graph(graph, order="random", seed=5).iter_batches(1024))
        for batch in batches[:-1]:
            algo.process_batch(batch)
        assert len(algo.outcomes()) == len(algo.guesses()) > len(algo._builders)
        assert len(built) == len(algo._builders) == (1 if num_sets == 100 else 6)
        # One builder per distinct index of the table.
        assert algo.describe()["sketch_builders"] == len(set(algo._table.builder_of))
        assert algo.describe()["sketch_builders"] == len(algo._builders)
        # Another batch changes every store: one more CSR per builder.
        algo.process_batch(batches[-1])
        for guess, plan, builder in _guess_rows(algo):
            check_guess(guess, plan, builder.columns())
            check_guess(guess, plan, builder.columns(), forbidden=(2,))
        assert len(built) == 2 * len(algo._builders)

    def test_algorithm_6_builds_one_csr_per_iteration(self, workload, built):
        algo = StreamingSetCover(100, 2000, rounds=3, seed=1)
        stream = EdgeStream.from_graph(workload.graph, order="random", seed=1)
        StreamingRunner(workload.graph).run(algo, stream)
        assert len(built) == 2

    def test_binding_caps_split_the_guesses_into_groups(self):
        algo = StreamingSetCoverOutliers(4000, 20_000, 0.1, seed=5)
        table, builders = algo._table, algo._builders
        assert len(builders) > 1
        # Contiguous in guess order, numbered in guess order of their first
        # member, one builder each.
        assert list(table.builder_of) == sorted(table.builder_of)
        assert sorted(set(table.builder_of)) == list(range(len(builders)))
        for index, builder in enumerate(builders):
            budgets = {
                (p.edge_budget, p.degree_cap, p.eviction_slack)
                for p, b in zip((plan.params for plan in table.plans), table.builder_of)
                if b == index
            }
            assert budgets == {
                (builder.params.edge_budget, builder.params.degree_cap,
                 builder.params.eviction_slack)
            }
        caps = [builder.params.degree_cap for builder in builders]
        assert caps[0] == 4000 and all(a > b for a, b in zip(caps, caps[1:]))

    @pytest.mark.parametrize("batch_size", [7, 256])
    def test_several_builders_batch_equals_per_event(self, batch_size):
        n, m = 4000, 20_000
        rng = spawn_rng(6, "several-builders")
        graph = BipartiteGraph.from_element_sets(
            n, {element: set(rng.choice(n, size=5, replace=False).tolist())
                for element in rng.choice(m, size=300, replace=False).tolist()}
        )

        def run(batch_size):
            algo = StreamingSetCoverOutliers(n, m, 0.1, seed=6)
            _feed(algo, graph, 6, batch_size)
            return len(algo._builders), _state(algo), algo.result()

        scalar = run(None)
        assert scalar[0] > 1
        assert run(batch_size) == scalar
