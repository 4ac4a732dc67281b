"""Concurrent request driver: many clients, one engine, latency capture.

The serving story is only real under load, so this module drives a batch of
:class:`~repro.api.specs.QuerySpec` requests through one
:class:`~repro.serve.engine.QueryEngine` on a :mod:`repro.parallel`
mapper and reports per-query latencies plus p50/p99/QPS.

Only the ``serial`` and ``thread`` backends are accepted: the whole point
of warm serving is that every client shares the *same* resident sketch and
packed kernel arrays, and a process pool would pickle a private copy of
the engine into each worker — silently measuring N cold caches instead of
one warm one.  Threads are the honest model for this workload anyway; the
hot path is dominated by NumPy kernel reductions, which release the GIL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro import obs
from repro.api.specs import QuerySpec
from repro.errors import SpecError
from repro.obs import Histogram, clock, percentile
from repro.parallel import ParallelMapper
from repro.streaming.runner import StreamingReport

__all__ = [
    "SHARED_MEMORY_EXECUTORS",
    "QueryJob",
    "LoadReport",
    "drive_queries",
    "percentile",
    "run_query_job",
]

#: Executor backends that keep every client on the shared engine.
SHARED_MEMORY_EXECUTORS = ("serial", "thread")

#: Process-lifetime latency distribution across every driven batch; the
#: per-batch exact distribution lives on each :class:`LoadReport`.
_QUERY_SECONDS = obs.global_metrics().histogram(
    "serve.query_seconds", help="per-query serving latency across driven batches"
)


@dataclass
class QueryJob:
    """One client request: which engine to ask, and what to ask it."""

    engine: Any
    spec: QuerySpec


def run_query_job(job: QueryJob) -> tuple[StreamingReport, float]:
    """Execute one request, returning ``(report, latency_seconds)``.

    Module-level on purpose: it is the function handed to
    ``ParallelMapper.map``, and jobs must stay importable descriptions of
    work (see the ``picklable-jobs`` lint contract).
    """
    start = clock.perf_counter()
    report = job.engine.query(job.spec)
    return report, clock.perf_counter() - start


@dataclass
class LoadReport:
    """Outcome of one driven batch of queries.

    ``reports``/``latencies`` are in request order (the mapper guarantees
    input-order results), so callers can line answers up with their specs.
    ``executor``/``workers`` record what actually ran — a sandbox that
    cannot spawn threads degrades to the serial loop and says so.

    The latency summaries (p50/p99/mean) are read off a sample-tracking
    :class:`~repro.obs.Histogram` built from ``latencies``, so the report
    and the metrics exporters agree on one definition of each statistic.
    """

    clients: int
    executor: str
    workers: int
    latencies: list[float]
    reports: list[StreamingReport]
    wall_seconds: float
    latency: Histogram = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.latency = Histogram(
            "serve.query_seconds",
            help="per-query serving latency of this batch",
            track_samples=True,
        )
        for value in self.latencies:
            self.latency.observe(value)

    @property
    def num_queries(self) -> int:
        """How many requests the batch contained."""
        return self.latency.count

    @property
    def p50(self) -> float:
        """Median per-query latency (seconds, exact nearest-rank)."""
        return self.latency.quantile(50)

    @property
    def p99(self) -> float:
        """99th-percentile per-query latency (seconds, exact nearest-rank)."""
        return self.latency.quantile(99)

    @property
    def mean_latency(self) -> float:
        """Mean per-query latency (seconds)."""
        return self.latency.mean

    @property
    def qps(self) -> float:
        """Aggregate throughput: completed queries per wall-clock second."""
        return self.num_queries / self.wall_seconds if self.wall_seconds else 0.0

    def as_dict(self) -> dict[str, Any]:
        """Flat summary for tables and JSON artifacts (no per-query data)."""
        return {
            "clients": self.clients,
            "executor": self.executor,
            "workers": self.workers,
            "num_queries": self.num_queries,
            "wall_seconds": self.wall_seconds,
            "p50_seconds": self.p50,
            "p99_seconds": self.p99,
            "mean_seconds": self.mean_latency,
            "qps": self.qps,
        }


def drive_queries(
    engine: Any,
    specs: Iterable[QuerySpec | Mapping[str, Any]],
    *,
    clients: int = 8,
    executor: str = "thread",
) -> LoadReport:
    """Drive a batch of queries through ``engine`` with ``clients`` workers.

    ``specs`` may mix :class:`QuerySpec` instances and their dict forms.
    Latency is measured per query inside the worker; ``wall_seconds``
    covers the whole batch, so ``qps`` reflects real concurrency.
    """
    if executor not in SHARED_MEMORY_EXECUTORS:
        raise SpecError(
            f"drive_queries supports executors {SHARED_MEMORY_EXECUTORS}, "
            f"got {executor!r}: a process pool would pickle a private engine "
            "copy per worker and benchmark cold caches instead of the shared "
            "warm one"
        )
    resolved = [
        spec if isinstance(spec, QuerySpec) else QuerySpec.from_dict(spec)
        for spec in specs
    ]
    jobs = [QueryJob(engine=engine, spec=spec) for spec in resolved]
    mapper = ParallelMapper(executor, max_workers=clients)
    start = clock.perf_counter()
    with obs.span("serve.drive", clients=clients, queries=len(jobs)):
        outcomes = mapper.map(run_query_job, jobs)
    wall = clock.perf_counter() - start
    latencies = [latency for _, latency in outcomes]
    for latency in latencies:
        _QUERY_SECONDS.observe(latency)
    executed_backend, executed_workers = mapper.last_execution
    return LoadReport(
        clients=clients,
        executor=executed_backend,
        workers=executed_workers,
        latencies=latencies,
        reports=[report for report, _ in outcomes],
        wall_seconds=wall,
    )
