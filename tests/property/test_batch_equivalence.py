"""Batched-vs-per-event equivalence across the whole solver registry.

The runner only feeds columnar batches.  Its contract is that driving any
registered streaming solver with batches of any size — native
``process_batch`` or the unrolling shim alike — produces a report
byte-identical to the per-event reference (:class:`per_event.PerEvent`, which
hides ``process_batch`` so every batch is unrolled into ``process()`` calls):
same solution, coverage, pass count and space peak.  This property is what
lets every run use batches while every correctness claim is made about the
per-event reference semantics.
"""

from __future__ import annotations

import pytest

import repro.api  # noqa: F401 - populates the solver registry
from repro.api import StreamSpec, list_solvers, solve
from repro.core.params import SketchParams
from repro.core.setcover import StreamingSetCover
from repro.core.setcover_outliers import StreamingSetCoverOutliers
from repro.core.streaming_sketch import StreamingSketchBuilder
from repro.datasets import planted_kcover_instance, planted_setcover_instance
from repro.streaming import EdgeStream, StreamingRunner

from per_event import drive, per_event_twin

BATCH_SIZES = (1, 7, 1024)
#: Set-cover batch sizes: 4096 holds a whole pass of the instances below.
SKETCH_BATCH_SIZES = (1, 7, 1024, 4096)
SEEDS = (0, 3)

#: Per-problem workload plus solve() kwargs keeping multi-pass solvers fast.
_PROBLEM_SETUP = {
    "k_cover": (lambda: planted_kcover_instance(40, 900, k=6, seed=21), {}),
    "set_cover": (
        lambda: planted_setcover_instance(30, 500, cover_size=6, seed=22),
        {"max_passes": 60},
    ),
    "set_cover_outliers": (
        lambda: planted_setcover_instance(30, 500, cover_size=6, seed=23),
        {"max_passes": 80, "outlier_fraction": 0.1},
    ),
}


def _report_key(report):
    """The fields the equivalence contract covers (timings naturally differ)."""
    return (
        report.solution,
        report.coverage,
        report.coverage_fraction,
        report.solution_size,
        report.passes,
        report.space_peak,
        report.space_budget,
        report.stream_events,
    )


def _cases():
    for problem, (build, kwargs) in _PROBLEM_SETUP.items():
        for name in list_solvers(problem=problem, kind="streaming"):
            yield pytest.param(problem, name, build, kwargs, id=f"{problem}:{name}")


@pytest.mark.parametrize("problem,name,build,kwargs", list(_cases()))
def test_every_streaming_solver_is_batch_invariant(problem, name, build, kwargs):
    instance = build()
    for seed in SEEDS:
        with per_event_twin(name) as reference:
            scalar = solve(
                instance,
                reference,
                problem_kind=problem,
                stream=StreamSpec(order="random", seed=seed),
                seed=seed,
                **kwargs,
            )
        default = solve(instance, name, problem_kind=problem, seed=seed, **kwargs)
        assert _report_key(default) == _report_key(scalar), (
            f"{name}'s default solve() diverged from the per-event path, seed={seed}"
        )
        for batch_size in BATCH_SIZES:
            batched = solve(
                instance,
                name,
                problem_kind=problem,
                stream=StreamSpec(order="random", seed=seed, batch_size=batch_size),
                seed=seed,
                **kwargs,
            )
            assert _report_key(batched) == _report_key(scalar), (
                f"{name} diverged from the per-event path at batch_size={batch_size}, "
                f"seed={seed}"
            )


class _RecordingSetCover(StreamingSetCover):
    """Algorithm 6 that keeps each sketch pass's guess sketches as columns."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.guess_sketches = []

    def finish_pass(self, pass_index):
        if self._current_outliers is not None:
            self.guess_sketches.append(_guess_sketches(self._current_outliers))
        super().finish_pass(pass_index)


def _guess_sketches(outliers):
    """Every guess builder's columns and counters."""
    return [
        (
            columns.ranks.tolist(),
            columns.elements.tolist(),
            columns.set_ids.tolist(),
            columns.threshold,
            columns.truncated.tolist(),
            builder.describe(),
        )
        for index in outliers._table.builder_of
        for builder in [outliers._builders[index]]
        for columns in [builder.columns()]
    ]


def _run(algorithm, instance, seed, batch_size):
    """One run's report key; ``batch_size=None`` drives the per-event reference."""
    stream = EdgeStream.from_graph(instance.graph, order="random", seed=seed)
    runner = StreamingRunner(instance.graph)
    report = drive(runner, algorithm, stream, batch_size=batch_size)
    return _report_key(report)


def test_setcover_sketch_state_is_batch_invariant():
    instance = planted_setcover_instance(30, 500, cover_size=6, seed=22)
    n, m = instance.graph.num_sets, instance.graph.num_elements

    def run(batch_size):
        algorithm = _RecordingSetCover(n, m, seed=5)
        report = _run(algorithm, instance, 5, batch_size)
        return report, list(algorithm._covered), algorithm.guess_sketches

    scalar = run(None)
    assert len(scalar[2]) == 2  # two sketch passes, every guess recorded
    for batch_size in SKETCH_BATCH_SIZES:
        assert run(batch_size) == scalar, f"batch_size={batch_size}"


@pytest.mark.parametrize("evicting", [False, True], ids=["fit", "evict"])
def test_outliers_sketch_state_is_batch_invariant(evicting):
    """Algorithm 5's guesses share one space meter, so its peak depends on
    how their admissions and evictions interleave.  With small budgets on
    the last three guesses, those evict while the rest fit: fed one guess
    after another, their eviction spikes would land on top of every other
    guess's final count and raise the peak by one edge.  The batched pass
    must still end at the scalar pass's peak."""
    instance = planted_setcover_instance(30, 500, cover_size=6, seed=23)
    n, m = instance.graph.num_sets, instance.graph.num_elements

    def run(batch_size):
        algorithm = StreamingSetCoverOutliers(n, m, 0.1, seed=4)
        if evicting:
            # The last three guesses get builders of their own, fed after
            # the shared one.
            table = algorithm._table
            for index in range(3):
                params = SketchParams.explicit(
                    n, m, 2, 0.5, edge_budget=40 + 20 * index, degree_cap=4
                )
                algorithm._builders.append(
                    StreamingSketchBuilder(params, seed=index, space=algorithm.space)
                )
            algorithm._table = table._replace(
                builder_of=table.builder_of[:-3] + (1, 2, 3)
            )
        report = _run(algorithm, instance, 4, batch_size)
        return report, _guess_sketches(algorithm), algorithm.space.peak

    scalar = run(None)
    assert any(state[-1]["evictions"] for state in scalar[1]) == evicting
    for batch_size in SKETCH_BATCH_SIZES:
        assert run(batch_size) == scalar, f"batch_size={batch_size}"


def test_registry_covers_all_three_problems():
    """The sweep above must actually exercise every streaming solver."""
    swept = {
        name
        for problem in _PROBLEM_SETUP
        for name in list_solvers(problem=problem, kind="streaming")
    }
    assert swept == set(list_solvers(kind="streaming"))
