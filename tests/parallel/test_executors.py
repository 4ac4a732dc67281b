"""Unit tests for the repro.parallel executor table and mapper."""

from __future__ import annotations

import multiprocessing
import os
import re
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import pytest

from repro import obs
from repro.errors import SpecError
from repro.parallel import (
    EXECUTORS,
    ExecutorBackend,
    ParallelMapper,
    as_mapper,
    executor_choices,
    resolve_executor,
    usable_cpus,
)


class TestExecutorTable:
    def test_the_three_backends(self):
        assert sorted(EXECUTORS) == ["process", "serial", "thread"]
        for name, backend in EXECUTORS.items():
            assert backend.name == name

    def test_choices_lead_with_auto(self):
        assert executor_choices() == ("auto", "process", "serial", "thread")

    def test_unknown_backend_lists_the_choices(self):
        with pytest.raises(SpecError, match="procss.*'auto', 'process', 'serial', 'thread'"):
            resolve_executor("procss")

    def test_auto_is_a_selector_not_an_entry(self):
        assert "auto" not in EXECUTORS
        assert resolve_executor("auto") in EXECUTORS.values()

    def test_table_is_read_only(self):
        with pytest.raises(TypeError):
            EXECUTORS["plugin"] = EXECUTORS["serial"]  # type: ignore[index]

    def test_serial_runs_inline(self):
        serial = EXECUTORS["serial"]
        assert not serial.parallel
        assert serial.make_pool is None

    @pytest.mark.parametrize(
        "name, pool_type", [("thread", ThreadPoolExecutor), ("process", ProcessPoolExecutor)]
    )
    def test_parallel_backends_make_capped_pools(self, name, pool_type):
        backend = EXECUTORS[name]
        assert backend.parallel
        pool = backend.make_pool(2)
        try:
            assert isinstance(pool, pool_type)
            assert pool._max_workers == 2
        finally:
            pool.shutdown()


class TestResolution:
    def test_none_resolves_to_serial(self):
        assert resolve_executor(None) is EXECUTORS["serial"]

    @pytest.mark.parametrize("name", ["serial", "thread", "process"])
    def test_names_resolve_to_table_entries(self, name):
        assert resolve_executor(name) is EXECUTORS[name]

    def test_instance_passes_through(self):
        backend = EXECUTORS["thread"]
        assert resolve_executor(backend) is backend

    def test_auto_matches_cpu_availability(self):
        expected = "process" if usable_cpus() > 1 else "serial"
        assert resolve_executor("auto").name == expected


class TestParallelMapper:
    @pytest.mark.parametrize("bad", [0, -1, True])
    def test_max_workers_must_be_positive_int(self, bad):
        with pytest.raises((TypeError, ValueError)):
            ParallelMapper("serial", max_workers=bad)

    def test_workers_never_exceed_jobs_or_cap(self):
        mapper = ParallelMapper("thread", max_workers=3)
        assert mapper.workers_for(0) == 1
        assert mapper.workers_for(1) == 1
        assert mapper.workers_for(2) == 2
        assert mapper.workers_for(10) == 3

    def test_serial_mapper_runs_inline(self):
        mapper = ParallelMapper("serial")
        assert mapper.is_serial
        assert mapper.workers_for(100) == 1
        assert mapper.map(lambda x: x * x, range(5)) == [0, 1, 4, 9, 16]

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_results_come_back_in_input_order(self, executor):
        # Later jobs finish first under a parallel backend (reverse sleeps),
        # so preserved ordering is the gather discipline, not luck.
        mapper = ParallelMapper(executor, max_workers=4)
        jobs = [0.03, 0.02, 0.01, 0.0]
        assert mapper.map(_sleep_and_echo, jobs) == jobs

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_job_exceptions_propagate(self, executor):
        mapper = ParallelMapper(executor, max_workers=2)
        with pytest.raises(ValueError, match="boom 3"):
            mapper.map(_raise_on_three, [1, 2, 3, 4])

    def test_job_oserror_is_not_mistaken_for_pool_breakage(self):
        # A job raising OSError must propagate as-is, NOT trigger the
        # sandbox fallback's serial rerun of the whole job list.
        import threading

        calls = []
        last_job_started = threading.Event()

        def job(value):
            calls.append(value)
            if value == 3:
                last_job_started.set()
            if value == 2:
                # Hold the failure until every job has started, so none can
                # be cancelled by the gather unwinding early.
                last_job_started.wait(timeout=10)
                raise FileNotFoundError("gone")
            return value

        mapper = ParallelMapper("thread", max_workers=3)
        with pytest.raises(FileNotFoundError, match="gone"):
            mapper.map(job, [1, 2, 3])
        assert sorted(calls) == [1, 2, 3]  # each job ran exactly once

    def test_max_workers_alone_implies_auto(self):
        from repro.parallel import usable_cpus

        implied = ParallelMapper(None, max_workers=4)
        expected = "process" if usable_cpus() > 1 else "serial"
        assert implied.backend.name == expected
        # Without a worker count, None still means the serial loop.
        assert ParallelMapper(None).backend.name == "serial"

    def test_describe_reports_backend(self):
        info = ParallelMapper("thread", max_workers=2).describe()
        assert info["executor"] == "thread"
        assert info["max_workers"] == 2


def _make_closure(offset: int):
    def add(value: int) -> int:
        return value + offset

    return add


#: Callables a process pool cannot pickle, and what their error names.
UNPICKLABLE = [
    pytest.param(lambda value: value + 1, "<lambda>", id="lambda"),
    pytest.param(_make_closure(1), "_make_closure.<locals>.add", id="closure"),
]


class TestUnpicklableCallables:
    """A process map refuses an unpicklable callable before any pool exists.

    Handed to a live process pool, such a callable fails in the pool's
    feeder thread and the shutdown that follows can hang; the mapper must
    raise a typed error instead.
    """

    @pytest.mark.parametrize("fn, name", UNPICKLABLE)
    def test_process_map_raises_spec_error(self, fn, name):
        mapper = ParallelMapper("process", max_workers=2)
        with pytest.raises(SpecError, match=re.escape(name)):
            mapper.map(fn, [1, 2])

    @pytest.mark.parametrize("fn, name", UNPICKLABLE)
    def test_process_map_unordered_raises_spec_error(self, fn, name):
        mapper = ParallelMapper("process", max_workers=2)
        with pytest.raises(SpecError, match=re.escape(name)):
            list(mapper.map_unordered(fn, [1, 2]))

    @pytest.mark.parametrize("fn, name", UNPICKLABLE)
    def test_traced_process_map_raises_spec_error(self, fn, name):
        mapper = ParallelMapper("process", max_workers=2)
        with obs.tracing(), pytest.raises(SpecError, match=re.escape(name)):
            mapper.map(fn, [1, 2])

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    @pytest.mark.parametrize("fn, name", UNPICKLABLE)
    def test_in_process_backends_still_run_them(self, executor, fn, name):
        mapper = ParallelMapper(executor, max_workers=2)
        assert mapper.map(fn, [1, 2]) == [2, 3]
        assert sorted(mapper.map_unordered(fn, [1, 2])) == [(0, 2), (1, 3)]


class TestAsMapper:
    def test_passthrough_keeps_mapper(self):
        mapper = ParallelMapper("thread", max_workers=2)
        assert as_mapper(mapper) is mapper
        assert as_mapper(mapper, 2) is mapper

    def test_conflicting_max_workers_rejected(self):
        mapper = ParallelMapper("thread", max_workers=2)
        with pytest.raises(ValueError, match="max_workers"):
            as_mapper(mapper, 4)

    def test_name_builds_mapper(self):
        mapper = as_mapper("process", 3)
        assert mapper.backend.name == "process"
        assert mapper.max_workers == 3


def _sleep_and_echo(delay: float) -> float:
    time.sleep(delay)
    return delay


def _raise_on_three(value: int) -> int:
    if value == 3:
        raise ValueError(f"boom {value}")
    return value


def _die_in_worker(value: int) -> int:
    """Kill the pool worker that runs it; compute normally in the main process."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return value * value


def _fail_in_worker(value: int) -> int:
    """Raise in a pool worker; succeed in the main process (where a retry runs)."""
    if multiprocessing.parent_process() is not None:
        raise ValueError(f"worker refused {value}")
    return value


class TestWorkerKilledMidMap:
    """A process-pool worker dying mid-map breaks the pool; the mapper
    drains it and reruns the jobs serially, recording that it did."""

    JOBS = [1, 2, 3, 4]

    def test_map_reruns_serially(self):
        mapper = ParallelMapper("process", max_workers=2)
        expected = [_die_in_worker(job) for job in self.JOBS]
        assert mapper.map(_die_in_worker, self.JOBS) == expected
        assert mapper.last_execution == ("serial", 1)

    def test_map_unordered_yields_each_job_once(self):
        mapper = ParallelMapper("process", max_workers=2)
        pairs = list(mapper.map_unordered(_die_in_worker, self.JOBS))
        assert sorted(pairs) == [(i, _die_in_worker(job)) for i, job in enumerate(self.JOBS)]
        assert mapper.last_execution == ("serial", 1)

    @pytest.mark.parametrize("method", ["map", "map_unordered"])
    def test_job_error_is_not_retried(self, method):
        mapper = ParallelMapper("process", max_workers=2)
        with pytest.raises(ValueError, match="worker refused"):
            list(getattr(mapper, method)(_fail_in_worker, self.JOBS))
        assert mapper.last_execution == ("process", 2)


class TestLastExecution:
    def test_records_the_plan_when_the_pool_works(self):
        mapper = ParallelMapper("thread", max_workers=2)
        mapper.map(_sleep_and_echo, [0.0, 0.0, 0.0])
        assert mapper.last_execution == ("thread", 2)

    def test_degenerate_single_job_runs_inline(self):
        mapper = ParallelMapper("process", max_workers=4)
        mapper.map(_sleep_and_echo, [0.0])
        assert mapper.last_execution == ("process", 1)

    def test_fallback_is_recorded_as_serial(self):
        def broken_pool(max_workers):
            raise OSError("no fork for you")

        backend = ExecutorBackend(name="broken-test", parallel=True, make_pool=broken_pool)
        mapper = ParallelMapper(backend, max_workers=2)
        assert mapper.map(_sleep_and_echo, [0.0, 0.0]) == [0.0, 0.0]
        assert mapper.last_execution == ("serial", 1)
