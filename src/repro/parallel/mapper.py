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

Pool lifecycle: by default every map call owns its pool (create, use, shut
down).  A caller that issues several maps back to back — or wants the pool
warm while it consumes an unordered gather — wraps them in
:meth:`ParallelMapper.pool_scope`, which creates the pool lazily on first
use and keeps it alive until the scope exits, so one distributed run pays
worker start-up once instead of per call.

Robustness: pool creation can fail in restricted sandboxes (no ``/dev/shm``,
seccomp-filtered ``fork``); the mapper degrades to the serial loop in that
case rather than crashing, because every backend computes the same results.
Job *exceptions* are never swallowed — they propagate to the caller exactly
as the serial loop would raise them.  A callable the process backend cannot
pickle (a lambda, a closure) raises :class:`~repro.errors.SpecError` before
any pool is created.
"""

from __future__ import annotations

import pickle
from concurrent.futures import BrokenExecutor, Executor, Future, as_completed
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Iterator, TypeVar

from repro import obs
from repro.errors import SpecError
from repro.obs import clock
from repro.parallel.executors import ExecutorBackend, resolve_executor, usable_cpus
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
        # pool_scope state: a scope keeps one lazily-created pool alive
        # across the maps issued inside it.  ``_scope_broken`` remembers a
        # failed creation so the rest of the scope goes straight to the
        # serial loop instead of re-attempting a doomed pool per call.
        self._scope_depth = 0
        self._scope_pool: Executor | None = None
        self._scope_broken = False

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
        """Reuse one pool across every map issued inside the ``with`` body.

        The pool is created lazily by the first parallel map in the scope
        (and sized for it; later maps reuse it as-is) and shut down when the
        outermost scope exits, so a multi-call pipeline — e.g. a distributed
        run's map fan-out plus its streaming reduce — pays worker start-up
        once.  Scopes nest: inner scopes share the outer scope's pool.  A
        pool-creation failure inside a scope marks the whole scope broken
        (serial loop for its remaining maps); pool *breakage* mid-map
        discards the scoped pool so later maps in the scope fall back
        cleanly rather than resubmitting to a dead pool.  Serial mappers
        pass through unchanged.
        """
        self._scope_depth += 1
        try:
            yield self
        finally:
            self._scope_depth -= 1
            if self._scope_depth == 0:
                pool, self._scope_pool = self._scope_pool, None
                self._scope_broken = False
                if pool is not None:
                    pool.shutdown(wait=True, cancel_futures=True)

    def _acquire_pool(self, workers: int) -> tuple[Executor | None, bool]:
        """A pool for one map call: ``(pool, owned)``; ``(None, False)`` = serial.

        Inside a :meth:`pool_scope` the scoped pool is created on first use
        and returned un-owned (the scope exit shuts it down); outside, the
        caller owns the fresh pool and must release it.
        """
        if self._scope_depth > 0:
            if self._scope_broken:
                return None, False
            if self._scope_pool is None:
                try:
                    self._scope_pool = self.backend.make_pool(workers)
                except OSError:  # pragma: no cover - sandbox fallback
                    self._scope_broken = True
                    return None, False
            return self._scope_pool, False
        try:
            return self.backend.make_pool(workers), True
        except OSError:  # pragma: no cover - sandbox fallback
            return None, False

    def _release_pool(self, pool: Executor, owned: bool, broken: bool) -> None:
        """Close an owned pool; drop a scoped pool only if it broke mid-map."""
        if owned:
            pool.shutdown(wait=True, cancel_futures=True)
        elif broken:
            pool.shutdown(wait=True, cancel_futures=True)
            self._scope_pool = None
            self._scope_broken = True

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
        back to the serial loop.  Workers are spawned lazily, so the guard
        covers construction *and* submission (a seccomp-blocked ``fork``
        surfaces as ``OSError``/``RuntimeError`` from ``submit``, not from
        the constructor) plus :class:`BrokenExecutor` from the gather (a
        worker killed by the environment).  Exceptions raised by a *job*
        come out of ``future.result()`` with their own types and propagate
        untouched — never swallowed, never retried.  Jobs are pure
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
        pool, owned = self._acquire_pool(workers)
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
                except BrokenExecutor:  # pragma: no cover - pool died mid-run
                    broken = True
        finally:
            for future in futures:
                future.cancel()
            self._release_pool(pool, owned, broken)
        return self._fallback(fn, jobs)  # pragma: no cover - sandbox fallback

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
        cancels the pending futures and releases the pool.
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
        pool, owned = self._acquire_pool(workers)
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
                except BrokenExecutor:  # pragma: no cover - pool died mid-run
                    broken = True
        finally:
            for future in futures:
                future.cancel()
            self._release_pool(pool, owned, broken)
        if broken:  # pragma: no cover - sandbox fallback
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
