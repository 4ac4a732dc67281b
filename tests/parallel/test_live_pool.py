"""The process backend's live pool: started once, rebuilt after it breaks,
never shared with a forked child, and never left running at exit."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from test_executors import _die_in_worker

from repro import obs
from repro.api import solve
from repro.datasets import planted_kcover_instance
from repro.parallel import ParallelMapper, mapper

SRC = Path(__file__).resolve().parents[2] / "src"
OPTIONS = {"num_machines": 4, "edge_budget": 300, "degree_cap": 12}


def _square(value: int) -> int:
    return value * value


def _pool_starts(tracer) -> list[int]:
    """The worker counts of the pools started while ``tracer`` recorded."""
    return [
        record.attrs_dict()["workers"]
        for record in tracer.records()
        if record.name == "parallel.pool_start"
    ]


def _worker_pids(pool) -> set[int]:
    return set(pool._processes)


def _map_inside_a_worker(_: int) -> tuple[int, dict, list[int], tuple[str, int], set[int]]:
    """Run a process map from inside a pool worker; report what it used."""
    pools_at_entry = {workers: id(pool) for workers, pool in mapper._POOLS.items()}
    inner = ParallelMapper("process", max_workers=2)
    squares = inner.map(_square, range(4))
    return (
        os.getpid(),
        pools_at_entry,
        squares,
        inner.last_execution,
        _worker_pids(mapper._POOLS[2]),
    )


@pytest.fixture(scope="module")
def instance():
    return planted_kcover_instance(30, 600, k=3, planted_coverage=0.85, seed=4)


def test_consecutive_distributed_solves_start_one_pool(instance, fresh_process_pools):
    kwargs = dict(seed=3, executor="process", max_workers=2, options=OPTIONS)
    with obs.tracing() as tracer:
        first = solve(instance, "kcover/distributed", **kwargs)
        live = fresh_process_pools[2]
        second = solve(instance, "kcover/distributed", **kwargs)
    assert _pool_starts(tracer) == [2]
    assert fresh_process_pools[2] is live
    assert (second.solution, second.coverage, second.extra["map_workers"]) == (
        first.solution,
        first.coverage,
        2,
    )


def test_concurrent_first_maps_start_one_pool(fresh_process_pools):
    # More threads than cores race for the first pool; a check-then-start
    # without the lock would start (and leak) more than one.
    results: list[list[int]] = []
    barrier = threading.Barrier(6)

    def first_map() -> None:
        barrier.wait(timeout=30)
        results.append(ParallelMapper("process", max_workers=2).map(_square, range(4)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with obs.tracing() as tracer:
            threads = [threading.Thread(target=first_map) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[0, 1, 4, 9]] * 6
    assert _pool_starts(tracer) == [2]
    assert list(fresh_process_pools) == [2]


def test_a_killed_worker_reruns_serially_and_the_next_map_gets_a_new_pool(
    fresh_process_pools,
):
    process = ParallelMapper("process", max_workers=2)
    process.map(_square, range(4))
    broken = fresh_process_pools[2]
    jobs = [1, 2, 3, 4]
    assert process.map(_die_in_worker, jobs) == [_die_in_worker(job) for job in jobs]
    assert process.last_execution == ("serial", 1)
    assert 2 not in fresh_process_pools
    with obs.tracing() as tracer:
        assert process.map(_square, range(4)) == [0, 1, 4, 9]
    assert process.last_execution == ("process", 2)
    assert _pool_starts(tracer) == [2]
    assert fresh_process_pools[2] is not broken


def test_a_map_inside_a_pool_worker_builds_its_own_pool(fresh_process_pools):
    outer = ParallelMapper("process", max_workers=2)
    reports = outer.map(_map_inside_a_worker, range(2))
    parent_workers = _worker_pids(fresh_process_pools[2])
    for pid, pools_at_entry, squares, execution, inner_workers in reports:
        assert pid in parent_workers
        assert pools_at_entry == {}
        assert squares == [0, 1, 4, 9]
        assert execution == ("process", 2)
        assert len(inner_workers) == 2
        assert not inner_workers & (parent_workers | {os.getpid()})


SCRIPT = """
import json, os
from repro.api import solve
from repro.datasets import planted_kcover_instance
from repro.parallel import ParallelMapper, mapper

def nested(_):
    ParallelMapper("process", max_workers=2).map(abs, [-1, -2, -3])
    return sorted(mapper._POOLS[2]._processes)

instance = planted_kcover_instance(30, 600, k=3, planted_coverage=0.85, seed=4)
report = solve(instance, "kcover/distributed", seed=3, executor="process",
               max_workers=2, options=%r)
pids = sorted(mapper._POOLS[2]._processes)
for inner in ParallelMapper("process", max_workers=2).map(nested, [0, 1]):
    pids += inner
print(json.dumps({"map_workers": report.extra["map_workers"], "pids": pids}))
"""


def test_no_pool_outlives_the_interpreter():
    # The script also nests a pool inside each pool worker: a worker that
    # owns a live pool must still exit when its parent shuts it down.  The
    # script runs in its own session, so a hang fails the test after the
    # timeout instead of leaving workers behind that hold its pipes open.
    script = subprocess.Popen(
        [sys.executable, "-c", SCRIPT % (OPTIONS,)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = script.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(script.pid, signal.SIGKILL)
        script.communicate()
        pytest.fail("the interpreter did not exit within 60 s of its last solve")
    assert script.returncode == 0, stderr
    printed = json.loads(stdout.strip().splitlines()[-1])
    assert printed["map_workers"] == 2
    assert len(printed["pids"]) == 6
    for pid in printed["pids"]:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
