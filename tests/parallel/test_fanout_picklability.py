"""Every fan-out the library sends to a process pool survives pickling.

:class:`~repro.parallel.ParallelMapper` promises byte-identical results on
the serial, thread and process backends.  On a process pool that holds only
if the callable pickles *by reference* (a module-level function, not a
lambda, a closure or a bound method) and every job survives a pickle round
trip without changing what the callable computes from it.

Rather than guess at call sites, this module drives each process-pool
fan-out the library has — the distributed coordinator's map phase (from
memory, and from a columnar file under every partition strategy) and the
sketch ensemble's per-replica greedy — through :func:`repro.api.solve` on a
two-worker process pool, records every ``(fn, jobs)`` that reaches the
mapper, and checks each one directly.
"""

from __future__ import annotations

import pickle

import pytest

from repro.api import solve
from repro.coverage.io import write_columnar
from repro.datasets import planted_kcover_instance
from repro.distributed import PARTITION_STRATEGIES
from repro.parallel import ParallelMapper

K = 3
SKETCH = {"edge_budget": 300, "degree_cap": 12}
PROCESS = {"executor": "process", "max_workers": 2}


def assert_ships_by_reference(fn) -> None:
    """``fn`` pickles, and unpickles to the very same object."""
    try:
        restored = pickle.loads(pickle.dumps(fn))
    except (pickle.PicklingError, AttributeError, TypeError) as error:
        raise AssertionError(f"{fn!r} does not pickle: {error}") from error
    assert restored is fn, f"{fn!r} pickles by value, not by reference"


def assert_jobs_round_trip(fn, jobs) -> None:
    """Each job survives pickling and ``fn`` computes the same result from it."""
    for index, job in enumerate(jobs):
        shipped = pickle.loads(pickle.dumps(job))
        assert pickle.dumps(fn(shipped)) == pickle.dumps(fn(job)), (
            f"job {index} of {fn.__qualname__} changed across a pickle round trip"
        )


@pytest.fixture
def fanouts(monkeypatch):
    """Record ``(mapper, fn, jobs)`` for every map call, then run it."""
    calls = []
    for method in ("map", "map_unordered"):
        original = getattr(ParallelMapper, method)

        def recording(self, fn, jobs, _original=original):
            jobs = list(jobs)
            calls.append((self, fn, jobs))
            return _original(self, fn, jobs)

        monkeypatch.setattr(ParallelMapper, method, recording)
    return calls


def assert_fanouts_ship(calls) -> None:
    assert calls, "no fan-out reached the ParallelMapper"
    for mapper, fn, jobs in calls:
        assert_ships_by_reference(fn)
        assert_jobs_round_trip(fn, jobs)
        assert mapper.last_execution[0] == "process"


@pytest.fixture(scope="module")
def instance():
    return planted_kcover_instance(30, 600, k=K, planted_coverage=0.85, seed=4)


def test_distributed_in_memory_fanout_ships(fanouts, instance):
    solve(
        instance, "kcover/distributed", k=K, seed=4,
        options={"num_machines": 3, **SKETCH, **PROCESS},
    )
    assert_fanouts_ship(fanouts)


@pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
def test_distributed_columnar_fanout_ships(fanouts, instance, strategy, tmp_path):
    path = tmp_path / "edges.cols"
    write_columnar(instance.graph.edges(), path, num_sets=instance.n)
    solve(
        path, "kcover/distributed", k=K, seed=4,
        options={"num_machines": 3, "strategy": strategy, **SKETCH, **PROCESS},
    )
    assert_fanouts_ship(fanouts)


def test_ensemble_fanout_ships(fanouts, instance):
    solve(
        instance, "kcover/ensemble", k=K, seed=4,
        options={"replicas": 3, **SKETCH, **PROCESS},
    )
    assert_fanouts_ship(fanouts)


# --------------------------------------------------------------------------- #
# the check itself catches what a process pool cannot ship
# --------------------------------------------------------------------------- #
square = lambda value: value * value  # noqa: E731 - the seeded violation


def _make_adder(offset: int):
    def add(value: int) -> int:
        return value + offset

    return add


class _Runner:
    def run(self, value: int) -> int:
        return value


def _module_level(value: int) -> int:
    return value


@pytest.mark.parametrize(
    "fn",
    [square, _make_adder(1), _Runner().run],
    ids=["module-level-lambda-alias", "factory-closure", "bound-method"],
)
def test_callables_that_do_not_ship_by_reference_are_caught(fn):
    with pytest.raises(AssertionError):
        assert_ships_by_reference(fn)


def test_module_level_function_ships_by_reference():
    assert_ships_by_reference(_module_level)
