"""One entry point for every algorithm in the library.

:func:`solve` takes *anything that describes a coverage problem* — a
:class:`CoverageInstance`, a bare :class:`BipartiteGraph`, or a
:class:`ProblemSpec` bound to a registered dataset — resolves the solver
through the registry, wires up the right stream (edge or set arrival, per
the solver's declared model) and returns the same
:class:`~repro.streaming.runner.StreamingReport` the hand-wired entry points
produced.  Offline and distributed solvers are wrapped into the same report
shape so comparison code never branches on the solver kind.

:class:`Session` runs several solvers against one problem and aggregates the
reports into an :class:`~repro.analysis.experiments.ExperimentSuite`, which
is what the CLI, the benchmarks and the examples print.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro import obs
from repro.analysis.experiments import ExperimentSuite
from repro.analysis.metrics import approximation_ratio, kcover_reference_value
from repro.api.registry import ProblemContext, SolverInfo, get_solver
from repro.api.specs import ProblemSpec, RunSpec, SolverSpec, StreamSpec
from repro.coverage.bipartite import BipartiteGraph
from repro.coverage.instance import CoverageInstance, ProblemKind
from repro.coverage.io import ColumnarEdges, open_columnar
from repro.errors import SpecError
from repro.streaming.runner import StreamingReport, StreamingRunner
from repro.streaming.stream import EdgeStream, SetStream
from repro.utils.tables import Table
from repro.utils.timer import Stopwatch

__all__ = ["solve", "run", "Session"]

Problem = CoverageInstance | BipartiteGraph | ProblemSpec | ColumnarEdges | str | Path


def _resolve_context(
    problem: Problem,
    *,
    k: int | None = None,
    outlier_fraction: float | None = None,
    problem_kind: str | None = None,
    seed: int = 0,
    coverage_backend: str | None = None,
    executor: str | None = None,
    max_workers: int | None = None,
) -> ProblemContext:
    """Normalize the accepted problem descriptions into a ProblemContext."""
    if isinstance(problem, (str, Path)):
        # A path is taken to mean a columnar edge directory (the on-disk
        # workload format); anything else should be loaded explicitly.
        problem = open_columnar(problem)
    if isinstance(problem, ColumnarEdges):
        columns = problem
        ctx = _resolve_context(
            columns.to_graph(),
            k=k,
            outlier_fraction=outlier_fraction,
            problem_kind=problem_kind,
            seed=seed,
            coverage_backend=coverage_backend,
            executor=executor,
            max_workers=max_workers,
        )
        # Keep the mmap'd view: solvers with a batched map phase (the
        # distributed family) ingest the columns without re-materialising
        # the edges the graph above was built from.
        ctx.columns = columns
        return ctx
    if isinstance(problem, ProblemSpec):
        instance = problem.build_instance()
        return _resolve_context(
            instance,
            k=k if k is not None else problem.k,
            outlier_fraction=(
                outlier_fraction
                if outlier_fraction is not None
                else problem.outlier_fraction
            ),
            problem_kind=problem_kind or problem.problem,
            seed=seed,
            coverage_backend=(
                coverage_backend
                if coverage_backend is not None
                else problem.coverage_backend
            ),
            executor=executor if executor is not None else problem.executor,
            max_workers=(
                max_workers if max_workers is not None else problem.map_workers
            ),
        )
    if isinstance(problem, CoverageInstance):
        kind = problem_kind or problem.kind.value
        return ProblemContext(
            graph=problem.graph,
            problem=kind,
            k=k if k is not None else problem.k,
            outlier_fraction=(
                outlier_fraction
                if outlier_fraction is not None
                else problem.outlier_fraction
            ),
            seed=seed,
            instance=problem,
            coverage_backend=coverage_backend,
            executor=executor,
            max_workers=max_workers,
        )
    if isinstance(problem, BipartiteGraph):
        if problem_kind is None:
            if outlier_fraction:
                problem_kind = "set_cover_outliers"
            elif k is not None:
                problem_kind = "k_cover"
            else:
                problem_kind = "set_cover"
        if problem_kind == "k_cover" and k is None:
            raise SpecError(
                "k_cover on a bare graph requires k=...; only a CoverageInstance "
                "carries a default cardinality budget"
            )
        return ProblemContext(
            graph=problem,
            problem=problem_kind,
            k=k if k is not None else 1,
            outlier_fraction=outlier_fraction or 0.0,
            seed=seed,
            coverage_backend=coverage_backend,
            executor=executor,
            max_workers=max_workers,
        )
    raise SpecError(
        "problem must be a CoverageInstance, a BipartiteGraph, a ProblemSpec, "
        "a ColumnarEdges view or a columnar directory path, "
        f"got {type(problem).__name__}"
    )


def _resolve_solver(solver: str | SolverSpec, options: Mapping[str, Any] | None) -> SolverSpec:
    if isinstance(solver, SolverSpec):
        if options:
            merged = {**solver.options, **dict(options)}
            return SolverSpec(solver.name, merged)
        return solver
    if isinstance(solver, str):
        return SolverSpec(solver, dict(options or {}))
    raise SpecError(f"solver must be a registry name or SolverSpec, got {solver!r}")


def _build_stream(
    info: SolverInfo,
    algorithm: Any,
    ctx: ProblemContext,
    stream: StreamSpec | EdgeStream | SetStream | None,
) -> tuple[EdgeStream | SetStream, str | None]:
    """The stream to drive, plus the effective order (None for prebuilt streams)."""
    if isinstance(stream, (EdgeStream, SetStream)):
        return stream, None
    if stream is not None and not isinstance(stream, StreamSpec):
        raise SpecError(
            "stream must be a StreamSpec, an EdgeStream/SetStream or None, "
            f"got {type(stream).__name__}"
        )
    spec = stream if isinstance(stream, StreamSpec) else StreamSpec(seed=ctx.seed)
    arrival = spec.arrival or getattr(algorithm, "arrival_model", info.arrival) or "edge"
    if arrival == "edge":
        return EdgeStream.from_graph(ctx.graph, order=spec.order, seed=spec.seed), spec.order
    # SetStream only supports given/random; the degraded effective order is
    # recorded on the report so mixed comparisons stay honest.
    return (
        SetStream.from_graph(ctx.graph, order=spec.set_order, seed=spec.seed),
        spec.set_order,
    )


def _offline_report(
    ctx: ProblemContext, outcome: Any, solve_seconds: float, extra: dict[str, Any]
) -> StreamingReport:
    solution = tuple(dict.fromkeys(int(s) for s in outcome.solution))
    coverage = ctx.graph.coverage(solution)
    total = ctx.graph.num_elements
    return StreamingReport(
        algorithm=outcome.algorithm,
        arrival_model="offline",
        solution=solution,
        coverage=coverage,
        coverage_fraction=(coverage / total) if total else 1.0,
        solution_size=len(solution),
        passes=0,
        space_peak=ctx.graph.num_edges,
        space_budget=None,
        stream_events=0,
        timings={"solve": solve_seconds},
        extra={**outcome.extra, **extra},
    )


def _distributed_report(
    ctx: ProblemContext,
    algorithm_name: str,
    dist_report: Any,
    solve_seconds: float,
    extra: dict[str, Any],
) -> StreamingReport:
    solution = tuple(dict.fromkeys(int(s) for s in dist_report.solution))
    coverage = ctx.graph.coverage(solution)
    total = ctx.graph.num_elements
    return StreamingReport(
        algorithm=algorithm_name,
        arrival_model="distributed",
        solution=solution,
        coverage=coverage,
        coverage_fraction=(coverage / total) if total else 1.0,
        solution_size=len(solution),
        passes=dist_report.rounds,
        space_peak=dist_report.max_machine_load,
        space_budget=None,
        stream_events=dist_report.communication_edges,
        timings={"solve": solve_seconds},
        extra={
            "num_machines": dist_report.num_machines,
            "strategy": dist_report.strategy,
            "communication_edges": dist_report.communication_edges,
            "coordinator_edges": dist_report.coordinator_edges,
            "coverage_estimate": dist_report.coverage_estimate,
            "machine_load_min": dist_report.min_machine_load,
            "machine_load_mean": dist_report.mean_machine_load,
            "machine_load_max": dist_report.max_machine_load,
            "merged_threshold": dist_report.merged_threshold,
            "executor": dist_report.executor,
            "map_workers": dist_report.map_workers,
            "peak_resident_sketches": dist_report.peak_resident_sketches,
            "merge_count": dist_report.merge_count,
            **extra,
        },
    )


def solve(
    problem: Problem,
    solver: str | SolverSpec = "kcover/sketch",
    *,
    k: int | None = None,
    outlier_fraction: float | None = None,
    problem_kind: str | None = None,
    options: Mapping[str, Any] | None = None,
    stream: StreamSpec | EdgeStream | SetStream | None = None,
    max_passes: int | None = None,
    batch_size: int | None = None,
    seed: int = 0,
    coverage_backend: str | None = None,
    # repro-lint: disable=knob-drift -- imperative-only: injects a live kernel object (tests/benchmarks); specs name backends by string instead
    coverage_kernel: Any | None = None,
    executor: str | None = None,
    max_workers: int | None = None,
    # repro-lint: disable=knob-drift -- imperative-only escape hatch for solver-specific kwargs; RunSpecs express these via SolverSpec.options
    extra: Mapping[str, Any] | None = None,
) -> StreamingReport:
    """Run any registered solver on a coverage problem and report the outcome.

    Parameters
    ----------
    problem:
        A :class:`CoverageInstance`, a bare :class:`BipartiteGraph`, a
        :class:`ProblemSpec` bound to a registered dataset, or a columnar
        workload — a :class:`repro.coverage.io.ColumnarEdges` view or the
        path of a directory written by
        :func:`repro.coverage.io.write_columnar`.  Columnar problems stay
        column-backed: solvers with a batched map phase (the distributed
        family) ingest the memory-mapped columns directly.
    solver:
        A registry name (``"kcover/sketch"``) or a :class:`SolverSpec`.
    k / outlier_fraction / problem_kind:
        Problem parameters; default to the instance's own when available.
    options:
        Extra constructor options merged over the solver spec's options.
    stream:
        A :class:`StreamSpec` (order/seed/arrival), an already-built stream,
        or ``None`` for the solver's native arrival model seeded by ``seed``.
        Only streaming solvers consume a stream: a StreamSpec is ignored by
        offline/distributed solvers (so mixed comparisons can share one
        spec), but passing them a concrete stream object is an error.
    max_passes:
        Pass budget enforced by the runner; rejected for offline and
        distributed solvers, which take no passes over a stream.
    batch_size:
        Columnar drive mode: ``None`` feeds scalar events, a positive
        integer feeds :class:`~repro.streaming.batches.EventBatch` chunks of
        that size (identical reports, higher throughput).  Overrides the
        stream spec's ``batch_size``; rejected for offline and distributed
        solvers.
    seed:
        Seed forwarded to the solver constructor (and the default stream).
    coverage_backend:
        ``"auto"`` or ``"words"`` (the same packed layout); solvers that
        evaluate coverage offline (the greedy and local-search references)
        then run on the packed-bitset kernel.
        Defaults to the problem spec's ``coverage_backend`` when solving a
        :class:`ProblemSpec`; ``None`` keeps the default evaluation path.
    coverage_kernel:
        An already-packed :class:`repro.coverage.bitset.BitsetCoverage` of
        the problem graph; skips re-packing when the caller runs many
        solvers against one graph (:class:`Session` does this).  Implies
        its own backend when ``coverage_backend`` is not given.
    executor / max_workers:
        Optional :mod:`repro.parallel` executor backend name (``"auto"``,
        ``"serial"``, ``"thread"``, ``"process"``) and pool-size cap.
        Solvers with an embarrassingly parallel phase — the distributed map
        phase, the ensemble's per-replica greedy — fan that phase over real
        cores; results are byte-identical across backends.  Defaults to the
        problem spec's ``executor`` / ``map_workers`` when solving a
        :class:`ProblemSpec`; ``None`` keeps the serial loop.
    extra:
        Free-form values recorded on the report.

    Returns
    -------
    StreamingReport
        The same report type the hand-wired pipelines produced; offline and
        distributed solvers are wrapped into it (``arrival_model`` is then
        ``"offline"`` / ``"distributed"`` and ``passes`` counts rounds).
    """
    spec = _resolve_solver(solver, options)
    info = get_solver(spec.name)
    ctx = _resolve_context(
        problem,
        k=k,
        outlier_fraction=outlier_fraction,
        problem_kind=problem_kind,
        seed=seed,
        coverage_backend=coverage_backend,
        executor=executor,
        max_workers=max_workers,
    )
    if coverage_kernel is not None:
        ctx.preset_kernel(coverage_kernel)
    if not info.solves(ctx.problem):
        raise SpecError(
            f"solver {info.name!r} solves {info.problems}, not {ctx.problem!r}; "
            "pass problem_kind=... or pick a matching solver"
        )
    extra_dict = dict(extra or {})
    with obs.span("solve", solver=info.name, problem=ctx.problem):
        report = _run_solver(
            info, spec, ctx, stream, max_passes, batch_size, extra_dict
        )
    if obs.enabled():
        # Only while tracing: disabled runs stay byte-identical to the
        # pre-instrumentation library (comparison code strips "obs" the way
        # it strips SERVE_EXTRA_KEYS).
        report.extra.setdefault("obs", obs.summary())
    return report


def _run_solver(
    info: SolverInfo,
    spec: SolverSpec,
    ctx: ProblemContext,
    stream: StreamSpec | EdgeStream | SetStream | None,
    max_passes: int | None,
    batch_size: int | None,
    extra_dict: dict[str, Any],
) -> StreamingReport:
    """Dispatch one resolved solver run (the body of :func:`solve`)."""
    if info.kind == "streaming":
        algorithm = info.builder(ctx, **spec.options)
        stream_obj, effective_order = _build_stream(info, algorithm, ctx, stream)
        if effective_order is not None:
            extra_dict.setdefault("stream_order", effective_order)
        effective_batch = batch_size
        if effective_batch is None and isinstance(stream, StreamSpec):
            effective_batch = stream.batch_size
        if effective_batch is not None:
            extra_dict.setdefault("batch_size", effective_batch)
        return StreamingRunner(ctx.graph).run(
            algorithm,
            stream_obj,
            max_passes=max_passes,
            batch_size=effective_batch,
            extra=extra_dict,
        )
    if max_passes is not None:
        raise SpecError(
            f"max_passes does not apply to {info.kind} solver {info.name!r}"
        )
    if batch_size is not None:
        raise SpecError(
            f"batch_size does not apply to {info.kind} solver {info.name!r}"
        )
    if isinstance(stream, (EdgeStream, SetStream)):
        raise SpecError(
            f"{info.kind} solver {info.name!r} does not consume a stream object; "
            "pass a StreamSpec (ignored) or omit stream"
        )
    stopwatch = Stopwatch()
    with stopwatch.section("solve"):
        outcome = info.builder(ctx, **spec.options)
    seconds = stopwatch.as_dict().get("solve", 0.0)
    if info.kind == "offline":
        return _offline_report(ctx, outcome, seconds, extra_dict)
    algorithm_name, dist_report = outcome
    return _distributed_report(ctx, algorithm_name, dist_report, seconds, extra_dict)


def run(spec: RunSpec, problem: Problem | None = None) -> list[StreamingReport]:
    """Execute a fully-serialized :class:`RunSpec`.

    ``problem`` overrides the spec's dataset-bound instance (useful when the
    caller already materialized it); otherwise the spec must name a dataset,
    which is materialized once and shared by all repetitions.  Returns one
    report per repetition (stream and solver seeds advance by one per
    repetition so repeats are independent but reproducible); ``spec.label``
    is recorded on each report's ``extra``.
    """
    target = problem if problem is not None else spec.problem.build_instance()
    extra = {"label": spec.label} if spec.label else None
    # Offline repetitions all evaluate on the same graph: pack the coverage
    # kernel once for the whole sweep instead of once per repetition.
    kernel = None
    if (
        spec.problem.coverage_backend is not None
        and get_solver(spec.solver.name).kind == "offline"
        and isinstance(target, (CoverageInstance, BipartiteGraph))
    ):
        from repro.coverage.bitset import BitsetCoverage

        graph = target.graph if isinstance(target, CoverageInstance) else target
        kernel = BitsetCoverage(graph)
    reports = []
    for repetition in range(spec.repetitions):
        stream = StreamSpec(
            order=spec.stream.order,
            seed=spec.stream.seed + repetition,
            arrival=spec.stream.arrival,
            batch_size=spec.stream.batch_size,
        )
        reports.append(
            solve(
                target,
                spec.solver,
                k=spec.problem.k,
                outlier_fraction=spec.problem.outlier_fraction,
                problem_kind=spec.problem.problem,
                stream=stream,
                max_passes=spec.max_passes,
                seed=stream.seed,
                coverage_backend=spec.problem.coverage_backend,
                coverage_kernel=kernel,
                executor=spec.problem.executor,
                max_workers=spec.problem.map_workers,
                extra=extra,
            )
        )
    return reports


class Session:
    """Batch/comparison runs against one problem, aggregated via analysis.

    Every :meth:`run` resolves a solver through the registry, executes it via
    :func:`solve` and appends a row (with reference value and approximation
    ratio when the problem is a :class:`CoverageInstance`) to ``self.suite``.
    """

    def __init__(
        self,
        problem: Problem,
        *,
        name: str = "session",
        instance_name: str = "instance",
        k: int | None = None,
        outlier_fraction: float | None = None,
        problem_kind: str | None = None,
        seed: int = 0,
        reference_value: float | None = None,
        suite: ExperimentSuite | None = None,
        coverage_backend: str | None = None,
        executor: str | None = None,
        max_workers: int | None = None,
    ) -> None:
        if isinstance(problem, ProblemSpec):
            if coverage_backend is None:
                coverage_backend = problem.coverage_backend
            if executor is None:
                executor = problem.executor
            if max_workers is None:
                max_workers = problem.map_workers
            problem = problem.build_instance()
        if isinstance(problem, (str, Path)):
            problem = open_columnar(problem)
        self.problem: CoverageInstance | BipartiteGraph | ColumnarEdges = problem
        self.suite = suite if suite is not None else ExperimentSuite(name)
        self.instance_name = instance_name
        self.seed = seed
        self._k = k
        self._outlier_fraction = outlier_fraction
        self._problem_kind = problem_kind
        self.coverage_backend = coverage_backend
        self.executor = executor
        self.max_workers = max_workers
        self._kernel_cache: Any | None = None
        self._serve_engine: Any | None = None
        self._reference = reference_value
        # A default reference only makes sense for k-cover (Opt_k); computing
        # it is a full offline greedy, so defer until a row actually needs it.
        self._auto_reference = (
            reference_value is None
            and isinstance(problem, CoverageInstance)
            and ProblemKind(problem_kind or problem.kind) is ProblemKind.K_COVER
        )

    def _kernel(self) -> Any | None:
        """The session-wide packed kernel (one packing per Session), or None.

        Shared by the greedy reference and every offline solver run, so a
        sweep over many solvers/seeds pays the O(n·m) packing cost once.
        """
        if self.coverage_backend is None:
            return None
        if self._kernel_cache is None:
            from repro.coverage.bitset import BitsetCoverage, check_coverage_backend

            check_coverage_backend(self.coverage_backend)
            graph = (
                self.problem.graph
                if isinstance(self.problem, CoverageInstance)
                else self.problem
            )
            if isinstance(graph, ColumnarEdges):
                graph = graph.to_graph()
            self._kernel_cache = BitsetCoverage(graph)
        return self._kernel_cache

    @property
    def reference_value(self) -> float | None:
        """The reference Opt_k rows are normalized against (None if not k-cover)."""
        if self._reference is None and self._auto_reference:
            # Packing is only worth paying when the reference actually runs a
            # greedy; a planted value short-circuits before touching it.
            kernel = (
                self._kernel()
                if getattr(self.problem, "planted_value", None) is None
                else None
            )
            self._reference = kcover_reference_value(self.problem, kernel=kernel)
            self._auto_reference = False
        return self._reference

    def run(
        self,
        solver: str | SolverSpec,
        *,
        label: str | None = None,
        options: Mapping[str, Any] | None = None,
        stream: StreamSpec | EdgeStream | SetStream | None = None,
        max_passes: int | None = None,
        seed: int | None = None,
        extra: Mapping[str, Any] | None = None,
    ) -> StreamingReport:
        """Run one solver and append its row to the suite."""
        run_seed = self.seed if seed is None else seed
        if stream is None:
            stream = StreamSpec(seed=run_seed)
        # Only offline solvers evaluate through the kernel; pack it once per
        # session and only when a run actually consumes it.
        solver_spec = _resolve_solver(solver, None)
        needs_kernel = get_solver(solver_spec.name).kind == "offline"
        report = solve(
            self.problem,
            solver,
            k=self._k,
            outlier_fraction=self._outlier_fraction,
            problem_kind=self._problem_kind,
            options=options,
            stream=stream,
            max_passes=max_passes,
            seed=run_seed,
            coverage_backend=self.coverage_backend,
            coverage_kernel=self._kernel() if needs_kernel else None,
            executor=self.executor,
            max_workers=self.max_workers,
            extra=dict(extra or {}),
        )
        self._record_row(report, label)
        return report

    def serve(
        self,
        *,
        store: Any | None = None,
        batch_size: int | None = 1024,
    ) -> Any:
        """The session's serving engine (built lazily, one per session).

        The engine is configured to match :meth:`run`'s defaults — stream
        order ``"random"`` seeded by the session seed, the session's
        coverage backend — so ``session.query(QuerySpec(...))`` answers
        with the same solution ``session.run(solver, options=...)`` would
        compute, while repeat queries skip ingestion entirely.  ``store``
        and ``batch_size`` only take effect on the first call (they shape
        the engine being created); later calls return the cached engine.
        """
        if self._serve_engine is None:
            from repro.serve import QueryEngine

            self._serve_engine = QueryEngine(
                self.problem,
                store=store,
                seed=self.seed,
                order="random",
                stream_seed=self.seed,
                batch_size=batch_size,
                coverage_backend=self.coverage_backend,
            )
        return self._serve_engine

    def query(self, spec: Any, *, label: str | None = None) -> StreamingReport:
        """Serve one query from the cached sketch and append its suite row.

        ``spec`` is a :class:`~repro.api.specs.QuerySpec` (or its dict
        form).  The row carries the same reference/approximation metrics
        :meth:`run` records, so served and freshly-solved rows aggregate
        side by side.
        """
        report = self.serve().query(spec)
        self._record_row(report, label)
        return report

    def metrics(self) -> dict[str, dict[str, Any]]:
        """Deterministic snapshot of every instrument this session can see.

        Merges the process-global registry (streaming, distributed, kernel
        and driver telemetry) with the serving store's private registry when
        the session has built its engine; the ``serve.store.*`` names only
        exist in store registries, so the merge never aliases two sources.
        """
        store_registries = []
        if self._serve_engine is not None:
            store_registries.append(self._serve_engine.store.metrics)
        return obs.global_metrics().snapshot(extra=store_registries)

    def _record_row(self, report: StreamingReport, label: str | None) -> None:
        """Append one report to the suite with the session-level metrics."""
        metrics: dict[str, Any] = {}
        graph = (
            self.problem.graph
            if isinstance(self.problem, CoverageInstance)
            else self.problem
        )
        reference = self.reference_value
        if reference is not None:
            metrics["reference_value"] = reference
            metrics["approx_ratio"] = approximation_ratio(report.coverage, reference)
        metrics["n"] = graph.num_sets
        metrics["m"] = graph.num_elements
        metrics["input_edges"] = graph.num_edges
        self.suite.add_report(
            label or report.algorithm, self.instance_name, report, extra=metrics
        )

    def compare(
        self,
        solvers: Iterable[str | SolverSpec | Sequence[Any]],
        **common: Any,
    ) -> list[StreamingReport]:
        """Run several solvers; entries are names, specs or (label, name[, options])."""
        reports = []
        for entry in solvers:
            if isinstance(entry, (str, SolverSpec)):
                reports.append(self.run(entry, **common))
                continue
            entry = list(entry)
            if len(entry) == 2:
                label, name = entry
                reports.append(self.run(name, label=label, **common))
            elif len(entry) == 3:
                label, name, options = entry
                reports.append(self.run(name, label=label, options=options, **common))
            else:
                raise SpecError(
                    "compare entries must be a solver name/spec, (label, name) "
                    f"or (label, name, options); got {entry!r}"
                )
        return reports

    def to_table(self, columns: Sequence[str] | None = None) -> Table:
        """Render the accumulated rows as a table."""
        return self.suite.to_table(columns)

    def aggregate(self, metric: str, by: str = "algorithm") -> dict[str, dict[str, float]]:
        """Summary statistics of one metric grouped by a field."""
        return self.suite.aggregate(metric, by=by)

    def __len__(self) -> int:
        return len(self.suite)
