"""Glue between streams, streaming algorithms and result records.

A *streaming algorithm* in this library is any object implementing the small
protocol below (``start_pass`` / ``process`` / ``finish_pass`` / ``result`` /
``wants_another_pass`` and a ``space`` meter).  :class:`StreamingRunner`
drives such an algorithm over a replayable stream, counts passes against an
optional budget, records space usage, evaluates the returned solution on the
*original* instance and packages everything into a :class:`StreamingReport` —
the unit of data the analysis layer and the benchmarks consume.

The runner always feeds columnar
:class:`~repro.streaming.batches.EventBatch` chunks.  Algorithms may
implement the optional ``process_batch`` method to take a batch at once;
everything else goes through :func:`process_event_batch`'s unrolling shim,
which calls ``process`` once per event in stream order.  ``process`` stays
the reference semantics: a native ``process_batch`` must match feeding the
same events one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Protocol, runtime_checkable

from repro import obs
from repro.coverage.bipartite import BipartiteGraph
from repro.errors import PassBudgetExceeded, SpecError
from repro.streaming.batches import DEFAULT_BATCH_SIZE, EventBatch, check_batch_size
from repro.streaming.space import SpaceMeter
from repro.streaming.stream import EdgeStream, SetStream
from repro.utils.timer import Stopwatch

__all__ = [
    "StreamingAlgorithm",
    "StreamingReport",
    "StreamingRunner",
    "process_event_batch",
]

#: Stream-drive telemetry, recorded only while tracing is enabled so the
#: batch loop stays the untouched hot path otherwise.  Import-time handles:
#: a registry reset zeroes them in place.
_PASSES = obs.global_metrics().counter(
    "streaming.passes", help="stream passes driven (all runs)"
)
_EVENTS = obs.global_metrics().counter(
    "streaming.events", help="stream events fed to algorithms"
)
_BATCHES = obs.global_metrics().counter(
    "streaming.batches", help="columnar batches fed through process_batch"
)
_BATCH_SIZE = obs.global_metrics().histogram(
    "streaming.batch_size",
    buckets=obs.SIZE_BUCKETS,
    help="events per columnar batch",
)


@runtime_checkable
class StreamingAlgorithm(Protocol):
    """Protocol implemented by every streaming algorithm in the library."""

    #: Human-readable algorithm name used in reports.
    name: str
    #: Which stream model the algorithm consumes: ``"edge"`` or ``"set"``.
    arrival_model: str
    #: Space meter charged by the algorithm while it runs.
    space: SpaceMeter

    def start_pass(self, pass_index: int) -> None:
        """Called before each pass with the zero-based pass index."""

    def process(self, event: Any) -> None:
        """Handles one stream event (the reference semantics of a batch)."""

    def finish_pass(self, pass_index: int) -> None:
        """Called after each pass."""

    def wants_another_pass(self) -> bool:
        """Whether the algorithm needs a further pass over the stream."""

    def result(self) -> list[int]:
        """The chosen set ids once the algorithm has finished."""


def process_event_batch(algorithm: Any, batch: EventBatch) -> None:
    """Feed one batch to an algorithm, natively or via the unrolling shim.

    Algorithms exposing ``process_batch`` get the columnar batch directly;
    everything else receives the batch unrolled into scalar events, which by
    construction (:meth:`EventBatch.iter_events`) replays the exact scalar
    stream order.
    """
    handler = getattr(algorithm, "process_batch", None)
    if handler is not None:
        handler(batch)
        return
    process = algorithm.process
    for event in batch.iter_events():
        process(event)


@dataclass
class StreamingReport:
    """Everything measured about one streaming run."""

    algorithm: str
    arrival_model: str
    solution: tuple[int, ...]
    coverage: int
    coverage_fraction: float
    solution_size: int
    passes: int
    space_peak: int
    space_budget: int | None
    stream_events: int
    timings: dict[str, float] = field(default_factory=dict)
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def events_per_second(self) -> float | None:
        """Stream throughput derived from ``stream_events`` and the timings.

        ``None`` when the run recorded no stream time (offline / distributed
        wrappers) or processed no events.
        """
        stream_seconds = self.timings.get("stream")
        if not stream_seconds or not self.stream_events:
            return None
        return self.stream_events / stream_seconds

    def as_dict(self) -> dict[str, Any]:
        """Flatten the report into a plain dict (for tables / JSON).

        ``extra`` keys that collide with a core or derived column raise
        :class:`ValueError` instead of silently overwriting it; rename the
        extra (e.g. ``extra.<key>``) when a clash is intended.
        """
        row: dict[str, Any] = {
            "algorithm": self.algorithm,
            "arrival_model": self.arrival_model,
            "coverage": self.coverage,
            "coverage_fraction": self.coverage_fraction,
            "solution_size": self.solution_size,
            "passes": self.passes,
            "space_peak": self.space_peak,
            "space_budget": self.space_budget,
            "stream_events": self.stream_events,
            "events_per_second": self.events_per_second,
        }
        row.update({f"time.{k}": v for k, v in self.timings.items()})
        collisions = sorted(set(self.extra) & set(row))
        if collisions:
            raise ValueError(
                f"extra key(s) {collisions} collide with core report columns; "
                "rename them (e.g. 'extra.<key>') instead of overwriting"
            )
        row.update(self.extra)
        return row


class StreamingRunner:
    """Runs a streaming algorithm over a stream and evaluates the outcome.

    Parameters
    ----------
    reference_graph:
        The full input graph used to evaluate the returned solution.  The
        algorithm itself never touches it — it only sees the stream.
    """

    def __init__(self, reference_graph: BipartiteGraph) -> None:
        self._reference = reference_graph

    def run(
        self,
        algorithm: StreamingAlgorithm,
        stream: EdgeStream | SetStream,
        *,
        max_passes: int | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        extra: dict[str, Any] | None = None,
    ) -> StreamingReport:
        """Drive ``algorithm`` over ``stream`` until it stops asking for passes.

        Each pass is fed as columnar batches of at most ``batch_size``
        events: through ``process_batch`` where the algorithm provides it
        and the unrolling shim otherwise.  Reports do not depend on
        ``batch_size`` (up to timings); ``None`` or a non-positive value
        raises :class:`repro.errors.SpecError`.

        Raises :class:`repro.errors.PassBudgetExceeded` as soon as the
        algorithm asks for a pass the ``max_passes`` budget cannot grant, so
        budget exhaustion surfaces as an error instead of a silently
        truncated run.
        """
        self._check_model(algorithm, stream)
        check_batch_size(batch_size)
        stopwatch = Stopwatch()
        events = 0
        passes = 0
        while True:
            if max_passes is not None and passes >= max_passes:
                raise PassBudgetExceeded(passes + 1, max_passes)
            observing = obs.enabled()
            events_before = events
            with stopwatch.section("stream"), obs.span(
                "stream.pass", index=passes, algorithm=algorithm.name
            ):
                algorithm.start_pass(passes)
                for batch in stream.iter_batches(batch_size):
                    process_event_batch(algorithm, batch)
                    events += len(batch)
                    if observing:
                        _BATCHES.inc()
                        _BATCH_SIZE.observe(len(batch))
                algorithm.finish_pass(passes)
            if observing:
                _PASSES.inc()
                _EVENTS.inc(events - events_before)
            passes += 1
            if not algorithm.wants_another_pass():
                break
        with stopwatch.section("solve"), obs.span(
            "stream.solve", algorithm=algorithm.name
        ):
            solution = tuple(dict.fromkeys(int(s) for s in algorithm.result()))
        coverage = self._reference.coverage(solution)
        total_elements = self._reference.num_elements
        return StreamingReport(
            algorithm=algorithm.name,
            arrival_model=algorithm.arrival_model,
            solution=solution,
            coverage=coverage,
            coverage_fraction=(coverage / total_elements) if total_elements else 1.0,
            solution_size=len(solution),
            passes=passes,
            space_peak=algorithm.space.peak,
            space_budget=algorithm.space.budget,
            stream_events=events,
            timings=stopwatch.as_dict(),
            extra=dict(extra or {}),
        )

    def evaluate(self, solution: Iterable[int]) -> tuple[int, float]:
        """Coverage value and fraction of an arbitrary solution."""
        solution = list(solution)
        coverage = self._reference.coverage(solution)
        total = self._reference.num_elements
        return coverage, (coverage / total if total else 1.0)

    @staticmethod
    def _check_model(algorithm: StreamingAlgorithm, stream: EdgeStream | SetStream) -> None:
        is_edge_stream = isinstance(stream, EdgeStream)
        if algorithm.arrival_model == "edge" and not is_edge_stream:
            raise SpecError(
                f"{algorithm.name} consumes edge arrivals but was given a set stream"
            )
        if algorithm.arrival_model == "set" and is_edge_stream:
            raise SpecError(
                f"{algorithm.name} consumes set arrivals but was given an edge stream"
            )
