"""Deterministic fan-out/gather of independent jobs over an executor backend.

:class:`ParallelMapper` is the one object the rest of the library talks to
when it wants work spread over cores: the distributed map phase hands it one
job per machine, the sketch ensemble hands it one greedy run per replica,
and the benchmark sweeps hand it one configuration per row.  Whatever the
backend, :meth:`ParallelMapper.map` returns results **in input order** —
job ``i``'s result sits at index ``i`` — so callers that merge results
(e.g. :func:`repro.distributed.coordinator.merge_machine_sketches`) see
exactly the sequence a serial loop would have produced and stay
byte-identical across backends.  :meth:`ParallelMapper.map_unordered` is the
as-completed variant: it yields ``(index, result)`` pairs the moment each
job finishes, for callers whose gather is order-independent (an associative
reduce can start merging while the slowest mapper is still running).

Pool lifecycle: the process backend keeps one live pool per worker count
for the whole interpreter.  The first process map that needs ``w`` workers
starts the pool (traced as a ``parallel.pool_start`` span), and every later
process map of ``w`` workers, from any mapper or solve, reuses it, so a
solve pays worker start-up once per process instead of once per call.  A
pool that breaks mid-map (a killed worker) is dropped and its map reruns
serially; the next map starts a fresh pool.  A forked child starts with no
pools, so a map run inside a pool worker never submits to its parent's
pool, and an exit hook shuts every pool down.  Thread pools stay one per
map call: they start without a fork, and a shared thread pool could
deadlock under nested maps (a job waiting on a map queued behind it).

Robustness: pool creation can fail in restricted sandboxes (no ``/dev/shm``,
seccomp-filtered ``fork``); the mapper degrades to the serial loop in that
case rather than crashing, because every backend computes the same results.
Job *exceptions* are never swallowed — they propagate to the caller exactly
as the serial loop would raise them.  A callable the process backend cannot
pickle (a lambda, a closure) raises :class:`~repro.errors.SpecError` before
any pool is created.
"""

from __future__ import annotations

import os
import pickle
import threading
from concurrent.futures import BrokenExecutor, Executor, Future, as_completed
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from multiprocessing import util as mp_util
from typing import Any, Callable, Iterable, Iterator, TypeVar

from repro import obs
from repro.errors import SpecError
from repro.obs import clock
from repro.parallel.executors import (
    EXECUTORS,
    ExecutorBackend,
    resolve_executor,
    usable_cpus,
)
from repro.utils.validation import check_optional_positive_int

__all__ = ["ParallelMapper", "as_mapper"]

Job = TypeVar("Job")
Result = TypeVar("Result")


@dataclass(frozen=True)
class _InstrumentedOutcome:
    """What an instrumented job ships back beside its result.

    ``started`` is the worker's ``perf_counter`` at job entry — on this
    platform the monotonic clock is system-wide, so the coordinator can
    subtract its submit instant to get queue wait (clamped at zero where
    clocks are not comparable).  ``spans`` are the worker-side
    :class:`~repro.obs.trace.SpanRecord`\\ s, plain data riding home for
    :func:`repro.obs.adopt` to stitch under the coordinator's span.
    """

    value: Any
    started: float
    execute_seconds: float
    spans: tuple


def _run_instrumented(
    fn: Callable[[Job], Result], indexed_job: tuple[int, Job]
) -> _InstrumentedOutcome:
    """Run one job under a span capture, timing it on the worker's clock.

    Module-level on purpose: this is what actually crosses into
    process-pool workers when tracing is on, so it must pickle by reference.
    """
    index, job = indexed_job
    started = clock.perf_counter()
    with obs.capture(lane=f"worker-{index}") as captured:
        value = fn(job)
    return _InstrumentedOutcome(
        value=value,
        started=started,
        execute_seconds=clock.perf_counter() - started,
        spans=tuple(captured.records()),
    )


def _check_picklable(fn: Callable[..., Any]) -> None:
    """Refuse a callable a process pool cannot ship, before any pool exists.

    Lambdas and closures fail to pickle; handed to a live
    :class:`~concurrent.futures.ProcessPoolExecutor` they surface from the
    pool's feeder thread, and the pool shutdown that follows can hang.
    Pickling up front turns that into a :class:`~repro.errors.SpecError`
    naming the callable, at the one choke point every fan-out passes.
    """
    try:
        pickle.dumps(fn)
    except (pickle.PicklingError, AttributeError, TypeError) as error:
        raise SpecError(
            f"the process executor cannot pickle {fn!r} ({error}); "
            "hand the mapper a module-level function"
        ) from error


#: The live process pools by worker count, shared by every mapper in this
#: process.  ``_POOLS_LOCK`` guards both; a forked child rebinds them.
_POOLS: dict[int, Executor] = {}
_POOLS_LOCK = threading.Lock()
#: Pool tables a forked child inherited from its parents.  They are kept
#: referenced, never used: collecting a pool runs a callback that takes a
#: lock some parent thread may have held at the instant of the fork.
_INHERITED: list[dict[int, Executor]] = []
#: Whether this process has registered :func:`_shutdown_pools` to run at exit.
_exit_hook_armed = False


def _start_pool(backend: ExecutorBackend, workers: int) -> Executor:
    """Start a pool and its workers, under a ``parallel.pool_start`` span.

    A process pool forks its workers on its first submit, so one no-op job
    makes the span time the real start-up, and a sandbox that forbids
    ``fork`` fails here (as :class:`OSError`) instead of mid-map.
    """
    with obs.span("parallel.pool_start", workers=workers):
        pool = backend.make_pool(workers)
        try:
            pool.submit(os.getpid).result()
        except (OSError, RuntimeError, BrokenExecutor) as error:  # pragma: no cover
            pool.shutdown(wait=True, cancel_futures=True)
            raise OSError(f"the {backend.name} pool could not start") from error
    return pool


def _live_pool(backend: ExecutorBackend, workers: int) -> Executor:
    """The live pool of ``workers`` workers, started on first use."""
    global _exit_hook_armed
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = _POOLS[workers] = _start_pool(backend, workers)
            if not _exit_hook_armed:
                # multiprocessing runs its finalizers from its atexit hook in
                # the main interpreter, and in a pool worker (where atexit
                # never runs) before the worker waits for its own children,
                # which a live pool would otherwise keep waiting forever.
                mp_util.Finalize(None, _shutdown_pools, exitpriority=100)
                _exit_hook_armed = True
        return pool


def _retire_pool(workers: int, pool: Executor) -> None:
    """Drop a broken live pool, unless another map has already replaced it."""
    with _POOLS_LOCK:
        if _POOLS.get(workers) is pool:
            del _POOLS[workers]
    pool.shutdown(wait=True, cancel_futures=True)


def _shutdown_pools() -> None:
    """Shut every live pool of this process down (the exit hook)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


def _forget_pools() -> None:
    """In a forked child: start from no pools; the parent's are not ours."""
    global _POOLS, _POOLS_LOCK, _exit_hook_armed
    _INHERITED.append(_POOLS)
    _POOLS = {}
    _POOLS_LOCK = threading.Lock()
    _exit_hook_armed = False


os.register_at_fork(after_in_child=_forget_pools)


class ParallelMapper:
    """Maps a function over independent jobs through an executor backend.

    Parameters
    ----------
    executor:
        A backend name (``"serial"``, ``"thread"``, ``"process"``),
        ``"auto"`` (process when more than one CPU is usable), ``None``
        (serial) or an :class:`~repro.parallel.executors.ExecutorBackend`
        instance.  ``None`` *with* an explicit ``max_workers`` resolves to
        ``"auto"`` — asking for a worker count is asking for parallelism,
        and the serial backend has no pool to cap, so every caller
        (``DistributedKCover``, ``EnsembleKCover``, ``solve()``, the CLI)
        honours a bare worker count the same way instead of silently
        running serial.
    max_workers:
        Pool size cap for the parallel backends; defaults to
        :func:`~repro.parallel.executors.usable_cpus`.  The effective pool
        never exceeds the number of jobs.  Like an unknown backend name, a
        value that is not a positive integer raises
        :class:`~repro.errors.SpecError`.
    """

    def __init__(
        self,
        executor: str | ExecutorBackend | None = "auto",
        *,
        max_workers: int | None = None,
    ) -> None:
        check_optional_positive_int(max_workers, "max_workers")
        if max_workers is not None and executor is None:
            executor = "auto"
        self.backend = resolve_executor(executor)
        self.max_workers = max_workers
        #: What the most recent :meth:`map` / :meth:`map_unordered` call
        #: actually executed with — ``(backend name, pool size)``.  Differs
        #: from the configured backend only when the sandbox fallback had to
        #: run the jobs serially, so reports can record the truth instead of
        #: the plan.
        self.last_execution: tuple[str, int] = (self.backend.name, 1)
        #: Whether maps run on the process-wide live pool rather than on a
        #: pool made for the call.
        self._live = self.backend is EXECUTORS["process"]

    @property
    def is_serial(self) -> bool:
        """Whether jobs run inline (no fan-out set-up cost, no pickling)."""
        return not self.backend.parallel

    def workers_for(self, num_jobs: int) -> int:
        """The pool size :meth:`map` would use for ``num_jobs`` jobs.

        ``min(max_workers, num_jobs)`` — an explicit ``max_workers`` is an
        operator override and is deliberately *not* clamped to
        :func:`usable_cpus` (oversubscription is legitimate for IO-heavy
        jobs); only the default derives from the CPU quota.
        """
        if self.is_serial or num_jobs <= 1:
            return 1
        limit = self.max_workers if self.max_workers is not None else usable_cpus()
        return max(1, min(limit, num_jobs))

    # ------------------------------------------------------------------ #
    # pool lifecycle
    # ------------------------------------------------------------------ #
    @contextmanager
    def pool_scope(self) -> Iterator["ParallelMapper"]:
        """Yield this mapper unchanged.

        Process maps already share the live pool, so a scope has nothing
        left to keep alive; it stays only for callers written against it.
        """
        yield self

    def _acquire_pool(self, workers: int) -> Executor | None:
        """The pool one map runs on; ``None`` sends it to the serial loop.

        The process backend hands out the live pool of ``workers`` workers;
        any other backend makes a pool for this call.
        """
        try:
            if self._live:
                return _live_pool(self.backend, workers)
            return self.backend.make_pool(workers)
        except OSError:  # pragma: no cover - sandbox fallback
            return None

    def _release_pool(self, pool: Executor, workers: int, broken: bool) -> None:
        """Close a per-call pool; retire the live pool only if it broke."""
        if not self._live:
            pool.shutdown(wait=True, cancel_futures=True)
        elif broken:
            _retire_pool(workers, pool)

    # ------------------------------------------------------------------ #
    # ordered gather
    # ------------------------------------------------------------------ #
    def map(self, fn: Callable[[Job], Result], jobs: Iterable[Job]) -> list[Result]:
        """Apply ``fn`` to every job; results come back in input order.

        With tracing enabled (:func:`repro.obs.enabled`) each job runs under
        a worker-side span capture and ships its spans and timings back with
        its result; the coordinator stitches the spans under its open span
        and records queue-wait/execute histograms.  Disabled, this dispatch
        costs one attribute load and the plain path below runs unchanged.
        """
        jobs = list(jobs)
        if not obs.enabled():
            return self._map_plain(fn, jobs)
        submitted = clock.perf_counter()
        outcomes = self._map_plain(
            partial(_run_instrumented, fn), list(enumerate(jobs))
        )
        return [
            self._absorb_outcome(outcome, submitted) for outcome in outcomes
        ]

    def _absorb_outcome(
        self, outcome: _InstrumentedOutcome, submitted: float
    ) -> Any:
        """Record one instrumented job's telemetry; return its real result."""
        metrics = obs.global_metrics()
        metrics.counter("parallel.jobs").inc()
        metrics.histogram("parallel.queue_wait_seconds").observe(
            max(0.0, outcome.started - submitted)
        )
        metrics.histogram("parallel.execute_seconds").observe(
            outcome.execute_seconds
        )
        obs.adopt(outcome.spans)
        return outcome.value

    def _map_plain(
        self, fn: Callable[[Job], Result], jobs: list[Job]
    ) -> list[Result]:
        """The uninstrumented ordered gather (the disabled-path hot loop).

        The serial backend (and any degenerate pool of one worker) runs the
        plain loop.  Parallel backends submit every job up front and gather
        by future — submission order, not completion order — so the returned
        list is independent of scheduling.

        A backend whose pool cannot be used in the current environment falls
        back to the serial loop.  The guard covers pool start *and*
        submission (a seccomp-blocked ``fork`` surfaces as
        ``OSError``/``RuntimeError`` from ``submit``, not from the
        constructor) plus :class:`BrokenExecutor` from the gather (a worker
        killed by the environment, after which the live process pool is
        retired and the next map starts a fresh one).  Exceptions raised by
        a *job* come out of ``future.result()`` with their own types and
        propagate untouched — never swallowed, never retried.  Jobs are pure
        descriptions of work, so the serial retry after a pool-level
        failure recomputes, never double-applies.  ``last_execution``
        records what actually ran — ``("serial", 1)`` after a fallback —
        so callers report the truth, not the plan.
        """
        jobs = list(jobs)
        workers = self.workers_for(len(jobs))
        if workers == 1 or self.backend.make_pool is None:
            self.last_execution = (self.backend.name, 1)
            return [fn(job) for job in jobs]
        if self.backend.name == "process":
            _check_picklable(fn)
        self.last_execution = (self.backend.name, workers)
        pool = self._acquire_pool(workers)
        if pool is None:
            return self._fallback(fn, jobs)
        # On a pool-level failure, fall through WITHOUT rescuing yet: the
        # finally clause first drains/cancels everything already submitted,
        # so the serial rescue below never runs concurrently with a
        # half-finished pool job.
        broken = False
        futures: list[Future] = []
        try:
            try:
                futures = [pool.submit(fn, job) for job in jobs]
            except (OSError, RuntimeError, BrokenExecutor):
                broken = True  # pragma: no cover - worker spawn blocked at submit
            else:
                try:
                    return [future.result() for future in futures]
                except BrokenExecutor:  # pool died mid-run
                    broken = True
        finally:
            for future in futures:
                future.cancel()
            self._release_pool(pool, workers, broken)
        return self._fallback(fn, jobs)

    # ------------------------------------------------------------------ #
    # as-completed gather
    # ------------------------------------------------------------------ #
    def map_unordered(
        self, fn: Callable[[Job], Result], jobs: Iterable[Job]
    ) -> Iterator[tuple[int, Result]]:
        """Yield ``(index, result)`` pairs as jobs complete.

        Instrumented exactly like :meth:`map` when tracing is on (worker
        span capture rides back per job, queue-wait/execute histograms on
        arrival); disabled, the plain as-completed path runs unchanged.
        """
        jobs = list(jobs)
        if not obs.enabled():
            yield from self._map_unordered_plain(fn, jobs)
            return
        submitted = clock.perf_counter()
        for index, outcome in self._map_unordered_plain(
            partial(_run_instrumented, fn), list(enumerate(jobs))
        ):
            yield index, self._absorb_outcome(outcome, submitted)

    def _map_unordered_plain(
        self, fn: Callable[[Job], Result], jobs: list[Job]
    ) -> Iterator[tuple[int, Result]]:
        """The uninstrumented as-completed gather.

        The *set* of pairs equals ``list(enumerate(self.map(fn, jobs)))``;
        only the order is scheduling-dependent (the serial backend yields in
        input order).  Callers whose gather is order-independent — an
        associative streaming reduce — consume results while slower jobs are
        still running, instead of waiting for the whole barrier.

        Fallback semantics match :meth:`map`: a pool that cannot be created
        or breaks mid-run is drained, then the jobs not yet yielded rerun
        serially (``last_execution`` records ``("serial", 1)``).  Job
        exceptions propagate untouched.  Abandoning the generator early
        cancels the pending futures and closes a per-call pool; the live
        process pool stays up for the next map.
        """
        jobs = list(jobs)
        workers = self.workers_for(len(jobs))
        if workers == 1 or self.backend.make_pool is None:
            self.last_execution = (self.backend.name, 1)
            for index, job in enumerate(jobs):
                yield index, fn(job)
            return
        if self.backend.name == "process":
            _check_picklable(fn)
        self.last_execution = (self.backend.name, workers)
        pool = self._acquire_pool(workers)
        if pool is None:
            yield from self._fallback_unordered(fn, jobs, frozenset())
            return
        broken = False
        done: set[int] = set()
        futures: dict[Future, int] = {}
        try:
            try:
                futures = {pool.submit(fn, job): i for i, job in enumerate(jobs)}
            except (OSError, RuntimeError, BrokenExecutor):
                broken = True  # pragma: no cover - worker spawn blocked at submit
            else:
                try:
                    for future in as_completed(futures):
                        index = futures[future]
                        result = future.result()
                        done.add(index)
                        yield index, result
                except BrokenExecutor:  # pool died mid-run
                    broken = True
        finally:
            for future in futures:
                future.cancel()
            self._release_pool(pool, workers, broken)
        if broken:
            yield from self._fallback_unordered(fn, jobs, done)

    def _fallback(self, fn: Callable[[Job], Result], jobs: list[Job]) -> list[Result]:
        """The serial rescue loop for pool-level failures (recorded as such)."""
        self.last_execution = ("serial", 1)
        return [fn(job) for job in jobs]

    def _fallback_unordered(
        self,
        fn: Callable[[Job], Result],
        jobs: list[Job],
        already_yielded: "frozenset[int] | set[int]",
    ) -> Iterator[tuple[int, Result]]:
        """Serial rescue for :meth:`map_unordered`: rerun only un-yielded jobs."""
        self.last_execution = ("serial", 1)
        for index, job in enumerate(jobs):
            if index not in already_yielded:
                yield index, fn(job)

    def describe(self) -> dict[str, Any]:
        """Diagnostics for reports and tables."""
        return {
            "executor": self.backend.name,
            "max_workers": self.max_workers,
            "usable_cpus": usable_cpus(),
        }


def as_mapper(
    executor: "str | ExecutorBackend | ParallelMapper | None",
    max_workers: int | None = None,
) -> ParallelMapper:
    """Normalise the executor arguments callers accept into a mapper.

    An existing :class:`ParallelMapper` passes through (``max_workers`` must
    then be unset — the mapper already carries one); anything else is handed
    to the constructor.
    """
    if isinstance(executor, ParallelMapper):
        if max_workers is not None and max_workers != executor.max_workers:
            raise ValueError(
                "pass max_workers to the ParallelMapper constructor, not "
                "alongside an already-built mapper"
            )
        return executor
    return ParallelMapper(executor, max_workers=max_workers)
