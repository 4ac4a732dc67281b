"""The four end-to-end workloads.

Each workload makes its inputs from the seed with the public dataset
generators, runs a closed loop of user-visible operations (``solve()`` calls,
or ``QueryEngine.query`` calls from two client threads), and knows how to
check every answer and how to rebuild one operation from the library's public
pieces under harness spans for the traced pass.

The rebuilt pipelines call the same public functions ``solve()`` reaches
(``EdgeStream.from_graph``, ``StreamingKCover.process_batch``/``result``,
``ShardRecomputeJob`` under ``ParallelMapper.map_unordered``,
``StreamingMergeTree``, ``greedy_k_cover``, ``BipartiteGraph.coverage``, ...)
and must return exactly the answer ``solve()`` returns for the same seeds;
a mismatch counts as a failed operation.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import tempfile
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from benchmarks.e2e.checker import CoverageChecker
from repro.api import ProblemContext, QuerySpec, StreamSpec, get_solver, solve
from repro.core.setcover_outliers import guess_schedule
from repro.coverage.bitset import kernel_for
from repro.coverage.instance import CoverageInstance
from repro.coverage.io import open_columnar, write_columnar
from repro.datasets import planted_kcover_instance, planted_setcover_instance
from repro.distributed import (
    DEFAULT_MAP_BATCH,
    DistributedKCover,
    EdgePartitioner,
    ShardRecomputeJob,
    StreamingMergeTree,
    execute_map_job,
)
from repro.obs import SpanRecord, Tracer
from repro.offline.greedy import greedy_k_cover
from repro.parallel import ParallelMapper
from repro.serve import QueryEngine, SketchStore, fingerprint_problem
from repro.streaming import EdgeStream, StreamingReport, process_event_batch
from repro.utils.rng import spawn_rng

__all__ = [
    "WORK_DIR",
    "REFERENCE_KERNEL_S",
    "WORKLOADS",
    "BatchWorkload",
    "KCoverStream",
    "DistributedMerge",
    "SetCoverMultipass",
    "ServeMixed",
    "check_outputs",
    "host_slowness",
    "smoothed",
    "timed_map_job",
]

#: Scratch space inside the checkout (columnar inputs, traces), under the
#: git-ignored ``benchmarks/results/``.
WORK_DIR = Path(__file__).resolve().parents[1] / "results" / "e2e"

#: Fewest operations a loop runs, however short ``--seconds`` is.
MIN_OPS = 3

#: Wall seconds the host-speed kernel takes at the reference speed.
REFERENCE_KERNEL_S = 0.05


def host_slowness() -> float:
    """How much slower than the reference speed this host runs right now.

    The benchmark shares its machine, and the machine's speed drifts by tens
    of percent over minutes with no steal time the guest can see.  This
    times a fixed mix of the work the library does -- dict and set updates,
    a numpy sort and unique -- and returns its wall time over
    ``REFERENCE_KERNEL_S``.  Timings divided by it drift far less.
    """
    start = time.perf_counter()
    owners: dict[int, set[int]] = {}
    for value in range(50_000):
        owners.setdefault(value % 4099, set()).add(value % 7919)
    values = spawn_rng(0, "e2e-host-kernel").integers(0, 1 << 40, size=150_000)
    np.unique(np.sort(values, kind="stable") >> 20)
    return (time.perf_counter() - start) / REFERENCE_KERNEL_S


def smoothed(samples: Sequence[float], width: int = 5) -> list[float]:
    """Centred running median: each calibration sample replaced by the median
    of its ``width`` neighbours, so the kernel's own jitter cancels while the
    host's minute-scale drift is still tracked."""
    half = width // 2
    return [
        statistics.median(samples[max(0, i - half) : i + half + 1])
        for i in range(len(samples))
    ]


def span(tracer: Tracer | None, name: str, **attrs: Any) -> Any:
    """A harness span on ``tracer``, or a no-op in an untraced pass."""
    return nullcontext() if tracer is None else tracer.span(name, **attrs)


def rep_seed(seed: int, rep: int) -> int:
    """The solver and stream seed of repetition ``rep`` under workload ``seed``."""
    return 1000 * seed + rep


def _solution(selected: Iterable[int]) -> tuple[int, ...]:
    """The report's normal form of a selection: ints, first occurrence kept."""
    return tuple(dict.fromkeys(int(s) for s in selected))


def timed_map_job(job: ShardRecomputeJob) -> tuple[Any, tuple[SpanRecord, ...]]:
    """Run one map job under a worker-side span; return its sketch and spans.

    Top-level so a process pool pickles it by name; the span records are
    plain data and ride home with the result for the coordinator to adopt.
    """
    tracer = Tracer(lane=f"machine-{job.machine_id}")
    with tracer.span("distributed.map_job", machine=job.machine_id):
        sketch = execute_map_job(job)
    return sketch, tuple(tracer.records())


@dataclass
class Answer:
    """What a rebuilt pipeline computed, in ``solve()``'s terms."""

    solution: tuple[int, ...]
    coverage: int
    space_peak: int
    #: Algorithm- and layer-level counters read off the rebuilt objects.
    detail: dict[str, float] = field(default_factory=dict)


@dataclass
class Loop:
    """One closed loop of operations: latencies plus everything to check."""

    #: Wall seconds per operation, and the host slowness measured just
    #: before it (see :func:`host_slowness`).
    latencies: list[float]
    slowness: list[float]
    #: Calibrated operations per second: one sample per operation for a
    #: single caller, one for the whole drive of concurrent clients.
    throughput: list[float]
    #: ``(operation input, report or None, error message or None)``.
    outputs: list[tuple[Any, Any, str | None]]

    @property
    def calibrated(self) -> list[float]:
        """Latencies at the reference host speed."""
        return [latency / slow for latency, slow in zip(self.latencies, self.slowness)]


@dataclass
class Traced:
    """The traced pass: untraced latencies beside traced operations."""

    #: Untraced and traced operation latencies (seconds), in run order.
    plain: list[float] = field(default_factory=list)
    traced: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: Space peak (edges) of every checked answer.
    space_peaks: list[float] = field(default_factory=list)
    #: Per-operation counters read off the rebuilt objects (batch workloads).
    details: list[dict[str, float]] = field(default_factory=list)
    #: Whole-pass counters (serving).
    extra: dict[str, float] = field(default_factory=dict)
    #: Traced latencies (seconds) by outcome, e.g. ``serve.hit`` (serving).
    latency_groups: dict[str, list[float]] = field(default_factory=dict)


@dataclass
class State:
    """A set-up workload: the instance plus whatever the operations need."""

    seed: int
    instance: CoverageInstance
    path: Path | None = None
    engine: QueryEngine | None = None
    specs: list[QuerySpec] = field(default_factory=list)
    next_query: int = 0
    checker: CoverageChecker | None = None
    #: Served-query references keyed by ``(k, forbidden)`` (see ServeMixed).
    fresh: dict[tuple[int, tuple[int, ...]], tuple[StreamingReport, int]] = field(
        default_factory=dict
    )

    @property
    def num_edges(self) -> int:
        return self.instance.graph.num_edges


def check_outputs(
    workload: Any, state: State, outputs: Sequence[tuple[Any, Any, str | None]]
) -> tuple[int, list[str]]:
    """Failed-operation count and messages over ``(input, report, error)``."""
    failed, messages = 0, []
    for item, report, error in outputs:
        problems = [error] if error else workload.check_output(state, item, report)
        if problems:
            failed += 1
            messages += [f"{workload.describe(item)}: {problem}" for problem in problems]
    return failed, messages


def _fresh_dir(name: str) -> Path:
    """A new, empty scratch directory for one set-up of one workload."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR))


# --------------------------------------------------------------------- #
# batch workloads: a closed loop of solve() calls, one caller
# --------------------------------------------------------------------- #
class BatchWorkload:
    """A workload whose operation is one ``solve()`` of the whole instance."""

    name = ""
    #: Span names whose self time is spent feeding input edges to sketches,
    #: and turning sketch state into an evaluated solution.
    INGEST: tuple[str, ...] = ()
    EXTRACT: tuple[str, ...] = ()
    #: The traced pass wraps each rebuilt operation in one ``op`` span, which
    #: is also the span its children must account for.
    OP_NAMES = ("op",)
    ATTRIBUTION_ROOT = "op"

    def setup(self, seed: int, tracer: Tracer | None = None) -> State:
        raise NotImplementedError

    def close(self, state: State) -> None:
        """Release what :meth:`setup` created outside the process."""

    def solve(self, state: State, rep: int) -> StreamingReport:
        raise NotImplementedError

    def rebuild(self, state: State, rep: int, tracer: Tracer | None) -> Answer:
        raise NotImplementedError

    def check_output(self, state: State, rep: int, report: StreamingReport) -> list[str]:
        """The independent checker's verdict on one answer (empty = pass)."""
        raise NotImplementedError

    def quality(self, state: State, report: StreamingReport) -> float:
        raise NotImplementedError

    def probe(self, state: State, tracer: Tracer) -> dict[str, float]:
        """Once-per-run layer measurements outside the operations."""
        return {}

    def postprocess(self, records: list[SpanRecord]) -> list[SpanRecord]:
        return records

    def describe(self, rep: int) -> str:
        return f"rep {rep}"

    def same(self, report: StreamingReport, answer: Answer) -> list[str]:
        """The rebuilt pipeline must reproduce ``solve()``'s answer."""
        failures = []
        for key, expected, got in (
            ("solution", report.solution, answer.solution),
            ("coverage", report.coverage, answer.coverage),
            ("space_peak", report.space_peak, answer.space_peak),
        ):
            if expected != got:
                failures.append(f"rebuilt {key} {got!r} != solve() {expected!r}")
        return failures

    # -- loops ------------------------------------------------------------
    def warm_up(self, state: State, tracer: Tracer | None = None) -> list[Any]:
        """One ``solve()`` (rep 0) whose time counts as set-up, not as an
        operation; returns its output for checking."""
        with span(tracer, "warm_up"):
            return [(0, *self._attempt(state, 0)[1:])]

    def timed_loop(self, state: State, seconds: float) -> Loop:
        """Closed loop of ``solve()`` calls until ``seconds`` have passed;
        before each, ``gc.collect()`` and a host-speed calibration, and only
        the call itself is timed."""
        outputs: list[tuple[Any, Any, str | None]] = []
        latencies: list[float] = []
        slowness: list[float] = []
        begin = time.perf_counter()
        rep = 1
        while len(latencies) < MIN_OPS or time.perf_counter() - begin < seconds:
            gc.collect()
            slowness.append(host_slowness())
            gc.collect()
            elapsed, report, error = self._attempt(state, rep)
            latencies.append(elapsed)
            outputs.append((rep, report, error))
            rep += 1
        slowness = smoothed(slowness)
        return Loop(
            latencies=latencies,
            slowness=slowness,
            throughput=[slow / latency for latency, slow in zip(latencies, slowness)],
            outputs=outputs,
        )

    def _attempt(
        self, state: State, rep: int
    ) -> tuple[float, StreamingReport | None, str | None]:
        """One timed ``solve()``: ``(seconds, report or None, error or None)``."""
        start = time.perf_counter()
        try:
            report = self.solve(state, rep)
        except Exception as exc:  # a failed solve is counted; the loop goes on
            return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - start, report, None

    def traced_loop(self, state: State, seconds: float, tracer: Tracer) -> Traced:
        """Pairs of one untraced ``solve()`` and one traced rebuild per rep;
        the rebuild must reproduce the ``solve()`` answer exactly."""
        run = Traced()
        begin = time.perf_counter()
        rep = 1
        while len(run.traced) < MIN_OPS or time.perf_counter() - begin < seconds:
            gc.collect()
            elapsed, report, error = self._attempt(state, rep)
            gc.collect()
            start = time.perf_counter()
            answer = None
            with tracer.span("op", workload=self.name, rep=rep) as root:
                try:
                    answer = self.rebuild(state, rep, tracer)
                except Exception as exc:  # counted below; the pass goes on
                    root.set(error=f"{type(exc).__name__}: {exc}")
                    error = error or f"rebuild {type(exc).__name__}: {exc}"
            run.traced.append(time.perf_counter() - start)
            run.plain.append(elapsed)
            run.attempted += 1
            failures = [error] if error else []
            if report is not None and answer is not None:
                failures += self.same(report, answer) + self.check_output(state, rep, report)
                run.details.append(answer.detail)
                run.space_peaks.append(float(answer.space_peak))
            run.failed += bool(failures)
            run.failures += [f"rep {rep}: {message}" for message in failures]
            rep += 1
        return run

    # -- results ----------------------------------------------------------
    def samples(self, state: State, loop: Loop) -> dict[str, list[float]]:
        """Per-operation samples of the workload-specific end-to-end metrics."""
        reports = [report for _, report, _ in loop.outputs if report is not None]
        return {
            "quality_ratio": [self.quality(state, report) for report in reports],
            "space_peak_edges": [float(report.space_peak) for report in reports],
        }



class KCoverStream(BatchWorkload):
    """One-pass k-cover (Algorithm 3) over a sketch much smaller than the input."""

    name = "kcover-stream"
    NUM_SETS, NUM_ELEMENTS, K = 500, 300_000, 20
    OPTIONS = {"scale": 0.05}
    EPSILON = 0.2
    BATCH = 4096
    INGEST = ("streaming.stream_build", "streaming.pass", "sketch.ingest")
    EXTRACT = ("kcover.extract", "coverage.evaluate")

    def setup(self, seed: int, tracer: Tracer | None = None) -> State:
        with span(tracer, "datasets.generate"):
            instance = planted_kcover_instance(
                self.NUM_SETS, self.NUM_ELEMENTS, k=self.K, seed=seed
            )
        return State(seed=seed, instance=instance)

    def solve(self, state: State, rep: int) -> StreamingReport:
        seed = rep_seed(state.seed, rep)
        return solve(
            state.instance,
            "kcover/sketch",
            options=self.OPTIONS,
            stream=StreamSpec(order="random", seed=seed, batch_size=self.BATCH),
            seed=seed,
        )

    def rebuild(self, state: State, rep: int, tracer: Tracer | None) -> Answer:
        seed = rep_seed(state.seed, rep)
        graph = state.instance.graph
        with span(tracer, "api.construct"):
            ctx = ProblemContext(
                graph=graph, problem="k_cover", k=self.K, seed=seed, instance=state.instance
            )
            algorithm = get_solver("kcover/sketch").builder(ctx, **self.OPTIONS)
        with span(tracer, "streaming.stream_build"):
            stream = EdgeStream.from_graph(graph, order="random", seed=seed)
        with span(tracer, "streaming.pass"):
            algorithm.start_pass(0)
            for batch in stream.iter_batches(self.BATCH):
                with span(tracer, "sketch.ingest"):
                    algorithm.process_batch(batch)
            algorithm.finish_pass(0)
        with span(tracer, "kcover.extract"):
            solution = _solution(algorithm.result())
        with span(tracer, "coverage.evaluate"):
            coverage = graph.coverage(solution)
        info = algorithm.describe()
        budget = algorithm.params.edge_budget
        return Answer(
            solution=solution,
            coverage=coverage,
            space_peak=algorithm.space.peak,
            detail={
                "space_peak": float(algorithm.space.peak),
                "sketch.edges_seen": float(info["edges_seen"]),
                "sketch.edges_stored": float(info["stored_edges"]),
                "sketch.admit_ratio": (
                    float(info["edges_seen"] - info["edges_discarded"])
                    / max(1, info["edges_seen"])
                ),
                "sketch.evictions": float(info["evictions"]),
                "sketch.threshold": float(info["admission_threshold"]),
                "sketch.budget_fill": float(info["stored_edges"]) / max(1, budget),
                "streaming.events": float(stream.num_events),
            },
        )

    def check_output(self, state: State, rep: int, report: StreamingReport) -> list[str]:
        return state.checker.check_kcover(
            report.solution,
            report.coverage,
            k=self.K,
            reference=state.instance.planted_value,
            epsilon=self.EPSILON,
        )

    def quality(self, state: State, report: StreamingReport) -> float:
        return report.coverage / state.instance.planted_value


class DistributedMerge(BatchWorkload):
    """Two-round distributed k-cover from a columnar directory, process pool."""

    name = "distributed-merge"
    NUM_SETS, NUM_ELEMENTS, K = 400, 50_000, 10
    MACHINES, WORKERS, STRATEGY = 8, 2, "random"
    EPSILON = 0.2
    INGEST = ("coverage.io.open", "coverage.io.to_graph", "parallel.map")
    EXTRACT = (
        "distributed.reduce.fold",
        "distributed.reduce.result",
        "offline.greedy",
        "coverage.evaluate",
    )

    def setup(self, seed: int, tracer: Tracer | None = None) -> State:
        with span(tracer, "datasets.generate"):
            instance = planted_kcover_instance(
                self.NUM_SETS, self.NUM_ELEMENTS, k=self.K, seed=seed
            )
        path = _fresh_dir(self.name)
        with span(tracer, "coverage.io.write"):
            write_columnar(instance.graph.edges(), path, num_sets=self.NUM_SETS)
        return State(seed=seed, instance=instance, path=path)

    def close(self, state: State) -> None:
        if state.path is not None:
            shutil.rmtree(state.path, ignore_errors=True)

    def solve(self, state: State, rep: int) -> StreamingReport:
        return solve(
            state.path,
            "kcover/distributed",
            k=self.K,
            options={"num_machines": self.MACHINES, "strategy": self.STRATEGY},
            executor="process",
            max_workers=self.WORKERS,
            seed=rep_seed(state.seed, rep),
        )

    def rebuild(self, state: State, rep: int, tracer: Tracer | None) -> Answer:
        seed = rep_seed(state.seed, rep)
        with span(tracer, "coverage.io.open"):
            columns = open_columnar(state.path)
        with span(tracer, "coverage.io.to_graph"):
            graph = columns.to_graph()
        with span(tracer, "api.construct"):
            coordinator = DistributedKCover(
                graph.num_sets,
                max(1, graph.num_elements),
                self.K,
                num_machines=self.MACHINES,
                strategy=self.STRATEGY,
                seed=seed,
            )
            jobs = [
                ShardRecomputeJob(
                    machine_id=machine,
                    path=str(columns.path),
                    strategy=self.STRATEGY,
                    seed=seed,
                    num_machines=self.MACHINES,
                    params=coordinator.params,
                    hash_seed=seed,
                    batch_size=coordinator.batch_size,
                )
                for machine in range(self.MACHINES)
            ]
            tree = StreamingMergeTree(coordinator.params, hash_seed=seed)
            mapper = ParallelMapper("process", max_workers=self.WORKERS)
        loads: dict[int, tuple[int, int]] = {}
        busy: list[float] = []
        map_start = time.perf_counter()
        with span(tracer, "parallel.map", jobs=len(jobs)), mapper.pool_scope():
            for _, (machine, records) in mapper.map_unordered(timed_map_job, jobs):
                loads[machine.machine_id] = (machine.edges_processed, machine.edges_stored)
                busy += [record.duration for record in records]
                if tracer is not None:
                    # Worker spans become roots on their own lanes: they run
                    # beside the coordinator, not inside its self time.
                    tracer.adopt(records, parent_id=-1)
                with span(tracer, "distributed.reduce.fold"):
                    tree.add(machine)
        map_wall = time.perf_counter() - map_start
        with span(tracer, "distributed.reduce.result"):
            merged = tree.result()
        with span(tracer, "offline.greedy"):
            kernel = kernel_for(merged.graph, coordinator.coverage_backend)
            solution = _solution(greedy_k_cover(merged.graph, self.K, kernel=kernel).selected)
        with span(tracer, "coverage.evaluate"):
            coverage = graph.coverage(solution)
        shards = [loads[m][0] for m in sorted(loads)]
        stored = [loads[m][1] for m in sorted(loads)]
        workers = mapper.last_execution[1]
        return Answer(
            solution=solution,
            coverage=coverage,
            space_peak=max(stored),
            detail={
                "space_peak": float(max(stored)),
                "coordinator_edges": float(merged.num_edges),
                "distributed.map_job_s_sum": sum(busy),
                "distributed.map_job_s_max": max(busy),
                "distributed.merges": float(tree.merge_count),
                "distributed.peak_resident": float(tree.peak_resident),
                "distributed.communication_edges": float(sum(stored)),
                "distributed.coordinator_edges": float(merged.num_edges),
                "distributed.merge_keep_ratio": merged.num_edges / max(1, sum(stored)),
                "distributed.shard_skew": max(shards) / max(1.0, sum(shards) / len(shards)),
                "parallel.map_wall_s": map_wall,
                "parallel.jobs": float(len(jobs)),
                "parallel.efficiency": sum(busy) / max(1e-12, map_wall * workers),
            },
        )

    def same(self, report: StreamingReport, answer: Answer) -> list[str]:
        failures = super().same(report, answer)
        expected = report.extra["coordinator_edges"]
        if expected != answer.detail["coordinator_edges"]:
            failures.append(
                f"rebuilt coordinator_edges {answer.detail['coordinator_edges']} "
                f"!= solve() {expected}"
            )
        return failures

    def probe(self, state: State, tracer: Tracer) -> dict[str, float]:
        """A serial ``EdgePartitioner.split`` over the whole file: the routing
        the map jobs repeat in every worker."""
        start = time.perf_counter()
        with tracer.span("distributed.route"):
            columns = open_columnar(state.path)
            partitioner = EdgePartitioner(
                self.MACHINES,
                strategy=self.STRATEGY,
                seed=state.seed,
                total_edges=columns.num_edges,
            )
            stream = EdgeStream.from_columnar(columns, order="given")
            for batch in stream.iter_batches(DEFAULT_MAP_BATCH):
                partitioner.split(batch)
        return {"distributed.route_s": time.perf_counter() - start}

    def check_output(self, state: State, rep: int, report: StreamingReport) -> list[str]:
        return state.checker.check_kcover(
            report.solution,
            report.coverage,
            k=self.K,
            reference=state.instance.planted_value,
            epsilon=self.EPSILON,
        )

    def quality(self, state: State, report: StreamingReport) -> float:
        return report.coverage / state.instance.planted_value


class SetCoverMultipass(BatchWorkload):
    """Algorithm 6: five passes, each edge fed to every Algorithm 5 guess."""

    name = "setcover-multipass"
    NUM_SETS, NUM_ELEMENTS, COVER = 100, 2000, 6
    EPSILON = 0.3
    BATCH = 4096
    INGEST = (
        "streaming.stream_build",
        "setcover.pass.mark",
        "setcover.pass.sketch",
        "setcover.pass.collect",
    )
    EXTRACT = (
        "setcover.finish.mark",
        "setcover.finish.sketch",
        "setcover.finish.collect",
        "setcover.result",
        "coverage.evaluate",
    )

    def setup(self, seed: int, tracer: Tracer | None = None) -> State:
        with span(tracer, "datasets.generate"):
            instance = planted_setcover_instance(
                self.NUM_SETS, self.NUM_ELEMENTS, cover_size=self.COVER, seed=seed
            )
        return State(seed=seed, instance=instance)

    def solve(self, state: State, rep: int) -> StreamingReport:
        seed = rep_seed(state.seed, rep)
        return solve(
            state.instance,
            "setcover/sketch",
            stream=StreamSpec(order="random", seed=seed, batch_size=self.BATCH),
            seed=seed,
        )

    def rebuild(self, state: State, rep: int, tracer: Tracer | None) -> Answer:
        seed = rep_seed(state.seed, rep)
        graph = state.instance.graph
        with span(tracer, "api.construct"):
            ctx = ProblemContext(
                graph=graph,
                problem="set_cover",
                k=state.instance.k,
                seed=seed,
                instance=state.instance,
            )
            algorithm = get_solver("setcover/sketch").builder(ctx)
        with span(tracer, "streaming.stream_build"):
            stream = EdgeStream.from_graph(graph, order="random", seed=seed)
        passes = 0
        while True:
            phase, _ = algorithm.current_phase()
            with span(tracer, f"setcover.pass.{phase}"):
                algorithm.start_pass(passes)
                for batch in stream.iter_batches(self.BATCH):
                    process_event_batch(algorithm, batch)
            with span(tracer, f"setcover.finish.{phase}"):
                algorithm.finish_pass(passes)
            passes += 1
            if not algorithm.wants_another_pass():
                break
        with span(tracer, "setcover.result"):
            solution = _solution(algorithm.result())
        with span(tracer, "coverage.evaluate"):
            coverage = graph.coverage(solution)
        peak = algorithm.space.peak
        return Answer(
            solution=solution,
            coverage=coverage,
            space_peak=peak,
            detail={
                "space_peak": float(peak),
                "setcover.passes": float(passes),
                "outliers.guesses": float(
                    len(guess_schedule(graph.num_sets, algorithm.epsilon))
                ),
                "setcover.space_per_input": peak / max(1, graph.num_edges),
            },
        )

    def check_output(self, state: State, rep: int, report: StreamingReport) -> list[str]:
        return state.checker.check_setcover(
            report.solution,
            report.coverage,
            cover_size=self.COVER,
            epsilon=self.EPSILON,
        )

    def quality(self, state: State, report: StreamingReport) -> float:
        return self.COVER / max(1, report.solution_size)


# --------------------------------------------------------------------- #
# serving: two closed-loop clients against one QueryEngine
# --------------------------------------------------------------------- #
@dataclass
class Query:
    """One served request as the client saw it."""

    spec: QuerySpec
    client: int
    latency: float
    #: Host slowness around the query's drive segment (see :func:`smoothed`).
    slowness: float
    report: StreamingReport | None
    error: str | None


class ServeMixed:
    """Mixed k-cover queries against a capacity-bound sketch store."""

    name = "serve-mixed"
    NUM_SETS, NUM_ELEMENTS, K = 200, 10_000, 10
    CAPACITY = 10
    KS = tuple(range(1, 13))
    WARM_KS = tuple(range(1, 11))
    #: Query k over ``KS`` with weights ``k ** -K_EXPONENT``.
    K_EXPONENT = 1.2
    CLIENTS = 2
    #: Queries in the seeded sequence; the clients cycle through it.
    QUERIES = 8000
    #: The drive runs in segments of this many seconds, each preceded by a
    #: host-speed calibration.
    SEGMENT_S = 1.0
    #: Every other query forbids one of this many seeded sets of
    #: ``FORBIDDEN_SIZE`` set ids.
    FORBIDDEN_SETS, FORBIDDEN_SIZE = 3, 3
    EPSILON = 0.2
    BATCH = 1024
    INGEST = ("serve.query.miss",)
    EXTRACT = ("serve.query.hit",)
    #: One span per query, renamed by outcome after the drive; the drive
    #: span is what the queries must account for.
    OP_NAMES = ("serve.query.hit", "serve.query.miss", "serve.query.error")
    ATTRIBUTION_ROOT = "serve.drive"

    def setup(self, seed: int, tracer: Tracer | None = None) -> State:
        with span(tracer, "datasets.generate"):
            instance = planted_kcover_instance(
                self.NUM_SETS, self.NUM_ELEMENTS, k=self.K, seed=seed
            )
        with span(tracer, "serve.engine"):
            engine = QueryEngine(
                instance,
                store=SketchStore(capacity=self.CAPACITY),
                seed=seed,
                batch_size=self.BATCH,
            )
        return State(seed=seed, instance=instance, engine=engine, specs=self.query_mix(seed))

    def warm_up(self, state: State, tracer: Tracer | None = None) -> list[Any]:
        """Fill the store with k = 1..10 (set-up); returns the answers for checking."""
        outputs = []
        with span(tracer, "serve.warm"):
            for k in self.WARM_KS:
                spec = QuerySpec(problem="k_cover", k=k)
                outputs.append((spec, state.engine.query(spec), None))
        return outputs

    def close(self, state: State) -> None:
        """Nothing outside the process to release."""

    def query_mix(self, seed: int) -> list[QuerySpec]:
        """``QUERIES`` seeded queries: k drawn from ``KS`` with weights
        ``k ** -K_EXPONENT``, every other query forbidding one of
        ``FORBIDDEN_SETS`` seeded sets of ``FORBIDDEN_SIZE`` set ids."""
        rng = spawn_rng(seed, "e2e-serve-mix")
        weights = np.array([k ** -self.K_EXPONENT for k in self.KS])
        ks = rng.choice(np.array(self.KS), size=self.QUERIES, p=weights / weights.sum())
        pool = [
            tuple(sorted(rng.choice(self.NUM_SETS, self.FORBIDDEN_SIZE, replace=False).tolist()))
            for _ in range(self.FORBIDDEN_SETS)
        ]
        picks = rng.integers(len(pool), size=self.QUERIES)
        return [
            QuerySpec(
                problem="k_cover",
                k=int(k),
                forbidden=pool[int(pick)] if index % 2 else (),
            )
            for index, (k, pick) in enumerate(zip(ks.tolist(), picks.tolist()))
        ]

    # -- loops ------------------------------------------------------------
    def drive(
        self, state: State, seconds: float, tracer: Tracer | None = None
    ) -> tuple[list[Query], float]:
        """Closed-loop clients for about ``seconds``, in segments.

        Returns the queries in completion order and the calibrated
        throughput: queries completed over the drive's wall time at the
        reference speed.
        """
        segments: list[tuple[list[Query], float, float]] = []
        for _ in range(max(1, round(seconds / self.SEGMENT_S))):
            slowness = host_slowness()
            start = time.perf_counter()
            segment = self._segment(state, self.SEGMENT_S, tracer)
            segments.append((segment, time.perf_counter() - start, slowness))
        queries: list[Query] = []
        calibrated_wall = 0.0
        calibration = smoothed([slowness for _, _, slowness in segments])
        for (segment, wall, _), slowness in zip(segments, calibration):
            calibrated_wall += wall / slowness
            queries += [replace(query, slowness=slowness) for query in segment]
        return queries, len(queries) / calibrated_wall

    def _segment(self, state: State, seconds: float, tracer: Tracer | None) -> list[Query]:
        """Two client threads, each waiting for its reply before sending the
        next query, until ``seconds`` have passed."""
        lock = threading.Lock()
        queries: list[Query] = []
        deadline = time.perf_counter() + seconds
        clients = [
            threading.Thread(
                target=self._client,
                args=(state, client, deadline, lock, queries, tracer),
                name=f"e2e-client-{client}",
            )
            for client in range(self.CLIENTS)
        ]
        with span(tracer, "serve.drive", clients=self.CLIENTS):
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join()
        return queries

    def _client(
        self,
        state: State,
        client: int,
        deadline: float,
        lock: threading.Lock,
        queries: list[Query],
        tracer: Tracer | None,
    ) -> None:
        while time.perf_counter() < deadline:
            with lock:
                index = state.next_query
                state.next_query += 1
            spec = state.specs[index % len(state.specs)]
            report, error = None, None
            start = time.perf_counter()
            with span(tracer, "serve.query", client=client, k=spec.k) as active:
                try:
                    report = state.engine.query(spec)
                except Exception as exc:  # counted as failed; the client goes on
                    error = f"{type(exc).__name__}: {exc}"
                if active is not None:
                    hit = report is not None and report.extra.get("cache_hit")
                    active.set(cache="error" if error else ("hit" if hit else "miss"))
            latency = time.perf_counter() - start
            with lock:
                queries.append(Query(spec, client, latency, 1.0, report, error))

    def timed_loop(self, state: State, seconds: float) -> Loop:
        queries, throughput = self.drive(state, seconds)
        return Loop(
            latencies=[query.latency for query in queries],
            slowness=[query.slowness for query in queries],
            throughput=[throughput],
            outputs=[(query.spec, query.report, query.error) for query in queries],
        )

    def traced_loop(self, state: State, seconds: float, tracer: Tracer) -> Traced:
        """Half the time untraced, half with one span per query."""
        plain, _ = self.drive(state, seconds / 2)
        before = state.engine.store.stats()
        traced, throughput = self.drive(state, seconds / 2, tracer)
        after = state.engine.store.stats()
        outputs = [(q.spec, q.report, q.error) for q in plain + traced]
        served = [q for q in traced if q.report is not None]
        hits = [q.latency for q in served if q.report.extra["cache_hit"]]
        misses = [q.latency for q in served if not q.report.extra["cache_hit"]]
        failed, failures = check_outputs(self, state, outputs)
        extra = {
            "serve.queries": float(len(traced)),
            "serve.hits": float(len(hits)),
            "serve.misses": float(len(misses)),
            "serve.evictions": float(after["evictions"] - before["evictions"]),
            "serve.hit_ratio": len(hits) / max(1, len(hits) + len(misses)),
            "serve.qps": throughput,
        }
        return Traced(
            plain=[q.latency for q in plain],
            traced=[q.latency for q in traced],
            attempted=len(outputs),
            failed=failed,
            failures=failures,
            space_peaks=[float(q.report.space_peak) for q in served],
            extra=extra,
            latency_groups={"serve.hit": hits, "serve.miss": misses},
        )

    def postprocess(self, records: list[SpanRecord]) -> list[SpanRecord]:
        """Name each query span by its outcome, hang it under the drive it
        ran in, and give each client its own lane in the trace file."""
        drives = [record for record in records if record.name == "serve.drive"]
        out = []
        for record in records:
            if record.name == "serve.query":
                attrs = record.attrs_dict()
                drive = next(
                    d for d in drives if d.start <= record.start <= d.start + d.duration
                )
                record = replace(
                    record,
                    name=f"serve.query.{attrs.get('cache', 'error')}",
                    parent_id=drive.span_id,
                    lane=f"client-{attrs['client']}",
                )
            out.append(record)
        return out

    def describe(self, spec: QuerySpec) -> str:
        return f"query k={spec.k} forbidden={spec.forbidden}"

    def probe(self, state: State, tracer: Tracer) -> dict[str, float]:
        start = time.perf_counter()
        with tracer.span("serve.fingerprint"):
            fingerprint_problem(state.instance)
        return {"serve.fingerprint_s": time.perf_counter() - start}

    # -- results ----------------------------------------------------------
    def _fresh(self, state: State, spec: QuerySpec) -> tuple[StreamingReport, int]:
        """A from-scratch ``solve()`` with the engine's settings, and the
        offline greedy coverage on the full graph (memoised per spec)."""
        key = (spec.k, spec.forbidden)
        if key not in state.fresh:
            options = {"forbidden": list(spec.forbidden)} if spec.forbidden else None
            fresh = solve(
                state.instance,
                "kcover/sketch",
                k=spec.k,
                options=options,
                stream=StreamSpec(order="random", seed=state.seed, batch_size=self.BATCH),
                seed=state.seed,
            )
            greedy = greedy_k_cover(state.instance.graph, spec.k, forbidden=spec.forbidden)
            state.fresh[key] = (fresh, greedy.coverage)
        return state.fresh[key]

    def check_output(self, state: State, spec: QuerySpec, report: StreamingReport) -> list[str]:
        fresh, reference = self._fresh(state, spec)
        failures = state.checker.check_kcover(
            report.solution,
            report.coverage,
            k=spec.k,
            reference=reference,
            epsilon=self.EPSILON,
            forbidden=spec.forbidden,
        )
        if (report.solution, report.coverage) != (fresh.solution, fresh.coverage):
            failures.append(
                f"served {report.solution}/{report.coverage} != fresh solve() "
                f"{fresh.solution}/{fresh.coverage}"
            )
        return failures

    def samples(self, state: State, loop: Loop) -> dict[str, list[float]]:
        served = [(spec, report) for spec, report, _ in loop.outputs if report is not None]
        return {
            "quality_ratio": [
                report.coverage / max(1, self._fresh(state, spec)[1]) for spec, report in served
            ],
            "space_peak_edges": [float(report.space_peak) for _, report in served],
        }


WORKLOADS: dict[str, Any] = {
    workload.name: workload
    for workload in (KCoverStream(), DistributedMerge(), SetCoverMultipass(), ServeMixed())
}
