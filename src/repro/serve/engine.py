"""The query engine: answer many coverage queries against one cached build.

``solve()`` re-ingests the stream on every call; :class:`QueryEngine`
ingests once per distinct *build configuration* and answers every
subsequent :class:`~repro.api.specs.QuerySpec` from the cached artefact.
What is cached — and what a query may vary for free — depends on the
problem kind:

**k-cover** (``kcover/sketch``).  The sketch ``H_{<=n}`` is built by a
stream pass that never looks at ``k``'s role in selection, the forbidden
set or the coverage backend; only the derived space budgets
(``edge_budget``, ``degree_cap``, ``eviction_slack``), the rank source and
the seeds shape its content.  The cache therefore keys on exactly those,
and a query for any ``k``/``forbidden``/backend whose derived budgets
coincide re-runs just the offline greedy on the cached sketch — through
the same :func:`~repro.offline.greedy.greedy_k_cover` the solver's own
offline phase uses, with a :class:`~repro.coverage.bitset.KernelCache`
sharing one packed kernel across queries.

**set cover** (``setcover/sketch``).  Genuinely multi-pass: every option
(including ``forbidden``, which constrains each iteration's selection)
shapes the passes, so the unit of caching is the *run* — repeat queries
with the same configuration return the memoized report without touching
the stream.

**set cover with outliers** (``outliers/sketch``).  The stream pass builds
per-guess sketches; acceptance checks are offline.  The cache holds the
post-stream algorithm with its guess sketches finalized
(:meth:`~repro.core.setcover_outliers.StreamingSetCoverOutliers.query`),
so varying ``forbidden`` and the backend re-runs only the offline checks.
The backend is *excluded* from the set-cover and outliers keys: kernel
and set-based evaluation select identically (a property the test suite
enforces for every accepted backend value), so one entry serves them all.

Identity contract: for every query shape, the served report carries the
same solution/coverage/space/pass numbers a fresh ``solve()`` with the
engine's stream settings would produce — byte-identical up to timings and
the :data:`SERVE_EXTRA_KEYS` markers (``tests/serve`` property-tests
this, including after cache eviction and re-admission).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro import obs
from repro.api import ProblemContext, get_solver
from repro.api.specs import QuerySpec
from repro.coverage.bipartite import BipartiteGraph
from repro.coverage.bitset import KernelCache
from repro.coverage.instance import CoverageInstance
from repro.coverage.io import ColumnarEdges, open_columnar
from repro.core.sketch import CoverageSketch
from repro.errors import SpecError
from repro.obs import clock
from repro.offline.greedy import greedy_k_cover
from repro.serve.fingerprint import fingerprint_problem
from repro.serve.store import SketchKey, SketchStore
from repro.streaming.runner import StreamingReport, StreamingRunner
from repro.streaming.stream import STREAM_ORDERS, EdgeStream
from repro.utils.validation import check_positive_int

__all__ = ["QueryEngine", "SERVABLE_PROBLEMS", "SERVE_EXTRA_KEYS"]

#: Problem kind -> the sketch-family solver the engine serves it with.
#: Only the paper's edge-arrival sketch algorithms are served; baselines
#: have no build/query split to exploit.
SERVABLE_PROBLEMS = {
    "k_cover": "kcover/sketch",
    "set_cover": "setcover/sketch",
    "set_cover_outliers": "outliers/sketch",
}

#: Extra keys the engine adds to served reports (and nothing else differs
#: from a fresh ``solve()`` besides timings); comparison code strips these.
SERVE_EXTRA_KEYS = ("served", "cache_hit")

#: QuerySpec fields that must not be smuggled in through ``options``: the
#: engine applies them at query time (or keys on them), and a constructor
#: option would silently diverge from the cache's notion of the build.
_RESERVED_OPTIONS = ("forbidden", "coverage_backend")


@dataclass
class _CachedSketch:
    """k-cover entry: the built sketch, its shared kernel, and the build report."""

    sketch: CoverageSketch
    kernel: KernelCache
    base: StreamingReport


@dataclass
class _CachedRun:
    """set-cover entry: the memoized full run."""

    base: StreamingReport


@dataclass
class _CachedAlgorithm:
    """outliers entry: the post-stream algorithm plus the build report."""

    algorithm: Any
    base: StreamingReport


def _canonical_options(options: Mapping[str, Any]) -> str:
    """A hashable canonical form of a JSON-safe options dict."""
    return json.dumps(options, sort_keys=True)


class QueryEngine:
    """Serves coverage queries against cached sketch builds.

    Parameters
    ----------
    problem:
        The dataset: a :class:`~repro.coverage.instance.CoverageInstance`,
        a bare :class:`~repro.coverage.bipartite.BipartiteGraph`, a
        :class:`~repro.coverage.io.ColumnarEdges` view or a columnar
        directory path.
    store:
        The :class:`~repro.serve.store.SketchStore` to cache builds in; a
        private store per engine by default.  Sharing one store across
        engines is safe — every key carries the dataset fingerprint.
    seed:
        Default solver seed (mirrors ``solve(seed=...)``); a query's
        ``options={"seed": ...}`` overrides it per query, exactly as it
        would for ``solve``.
    order / stream_seed:
        The stream the builds consume, matching
        ``StreamSpec(order=..., seed=...)``.  ``stream_seed`` defaults to
        ``seed``, which is ``solve()``'s own default coupling.
    batch_size:
        Columnar ingestion batch for builds (reports record it, results
        are batch-invariant).  ``None`` feeds scalar events.
    coverage_backend:
        Default kernel backend for queries that leave
        ``QuerySpec.coverage_backend`` unset.
    """

    def __init__(
        self,
        problem: CoverageInstance | BipartiteGraph | ColumnarEdges | str | Path,
        *,
        store: SketchStore | None = None,
        seed: int = 0,
        order: str = "random",
        stream_seed: int | None = None,
        batch_size: int | None = 1024,
        coverage_backend: str | None = None,
    ) -> None:
        if isinstance(problem, (str, Path)):
            problem = open_columnar(problem)
        if order not in STREAM_ORDERS:
            raise SpecError(
                f"unknown stream order {order!r}; expected one of {STREAM_ORDERS}"
            )
        if batch_size is not None:
            check_positive_int(batch_size, "batch_size")
        if isinstance(problem, ColumnarEdges):
            self._graph = problem.to_graph()
            self._instance: CoverageInstance | None = None
        elif isinstance(problem, CoverageInstance):
            self._graph = problem.graph
            self._instance = problem
        elif isinstance(problem, BipartiteGraph):
            self._graph = problem
            self._instance = None
        else:
            raise SpecError(
                "problem must be a CoverageInstance, a BipartiteGraph, a "
                "ColumnarEdges view or a columnar directory path, "
                f"got {type(problem).__name__}"
            )
        self._fingerprint = fingerprint_problem(problem)
        self.store = store if store is not None else SketchStore()
        self.seed = int(seed)
        self.order = order
        self.stream_seed = self.seed if stream_seed is None else int(stream_seed)
        self.batch_size = batch_size
        self.coverage_backend = coverage_backend

    # ------------------------------------------------------------------ #
    # public surface
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> BipartiteGraph:
        """The evaluation graph every served coverage number is exact on."""
        return self._graph

    @property
    def fingerprint(self) -> str:
        """Content hash of the dataset (part of every cache key)."""
        return self._fingerprint

    def query(self, spec: QuerySpec | Mapping[str, Any]) -> StreamingReport:
        """Answer one query, building (and caching) the sketch on demand.

        Accepts a :class:`QuerySpec` or its ``to_dict`` form.  Returns the
        same :class:`StreamingReport` shape ``solve()`` produces, with
        ``extra["served"]``/``extra["cache_hit"]`` markers added and
        ``timings["solve"]`` measuring this query (``timings["stream"]``
        remains the cached build's ingestion time).
        """
        if isinstance(spec, Mapping):
            spec = QuerySpec.from_dict(spec)
        if not isinstance(spec, QuerySpec):
            raise SpecError(
                f"query expects a QuerySpec or a mapping, got {type(spec).__name__}"
            )
        for reserved in _RESERVED_OPTIONS:
            if reserved in spec.options:
                raise SpecError(
                    f"pass {reserved!r} as a QuerySpec field, not inside options: "
                    "the engine applies it at query time against the cached build"
                )
        backend = (
            spec.coverage_backend
            if spec.coverage_backend is not None
            else self.coverage_backend
        )
        start = clock.perf_counter()
        with obs.span("serve.query", problem=spec.problem):
            if spec.problem == "k_cover":
                return self._query_kcover(spec, backend, start)
            if spec.problem == "set_cover":
                return self._query_setcover(spec, backend, start)
            return self._query_outliers(spec, backend, start)

    def describe(self) -> dict[str, Any]:
        """Diagnostics for the CLI and reports."""
        return {
            "fingerprint": self._fingerprint,
            "num_sets": self._graph.num_sets,
            "num_elements": self._graph.num_elements,
            "num_edges": self._graph.num_edges,
            "seed": self.seed,
            "order": self.order,
            "stream_seed": self.stream_seed,
            "batch_size": self.batch_size,
            "coverage_backend": self.coverage_backend,
            **{f"store_{k}": v for k, v in self.store.stats().items()},
        }

    # ------------------------------------------------------------------ #
    # per-kind query paths
    # ------------------------------------------------------------------ #
    def _query_kcover(
        self, spec: QuerySpec, backend: str | None, start: float
    ) -> StreamingReport:
        options = dict(spec.options)
        ctx = self._context(spec, backend)
        info = get_solver("kcover/sketch")
        rank_source = str(options.get("rank_source", "hash"))
        # A probe construction resolves the derived budgets exactly the way
        # the registered builder does (epsilon/mode/scale/explicit budgets
        # included), so the key can never drift from the build.  The probe
        # forces the cheap hash rank source: a permutation rank pre-samples
        # O(sample_size) state we must not pay per query.
        probe = info.builder(ctx, **{**options, "rank_source": "hash"})
        params = probe.params
        key = SketchKey(
            fingerprint=self._fingerprint,
            family="kcover/sketch",
            config=(
                int(params.edge_budget),
                int(params.degree_cap),
                int(params.eviction_slack),
                rank_source,
                int(options.get("seed", self.seed)),
                self.order,
                self.stream_seed,
                self.batch_size,
            ),
        )

        def build() -> _CachedSketch:
            algorithm = (
                probe if rank_source == "hash" else info.builder(ctx, **options)
            )
            base = self._drive(algorithm)
            sketch = algorithm.sketch()
            return _CachedSketch(
                sketch=sketch, kernel=KernelCache(sketch.graph), base=base
            )

        entry, hit = self.store.get_or_build(key, build)
        result = greedy_k_cover(
            entry.sketch.graph,
            spec.k,
            forbidden=spec.forbidden,
            kernel=entry.kernel.get(backend),
        )
        # Mirror StreamingKCover.result()'s normalization exactly.
        selection = list(result.selected)[: spec.k]
        solution = tuple(dict.fromkeys(int(s) for s in selection))
        return self._served_report(entry.base, solution, hit, start)

    def _query_setcover(
        self, spec: QuerySpec, backend: str | None, start: float
    ) -> StreamingReport:
        options = dict(spec.options)
        if spec.forbidden:
            # Multi-pass: the constraint shapes every iteration's selection,
            # so it is part of the build, not a post-hoc filter.
            options["forbidden"] = list(spec.forbidden)
        key = SketchKey(
            fingerprint=self._fingerprint,
            family="setcover/sketch",
            config=(
                _canonical_options(options),
                self.seed,
                self.order,
                self.stream_seed,
                self.batch_size,
            ),
        )

        def build() -> _CachedRun:
            ctx = self._context(spec, backend)
            algorithm = get_solver("setcover/sketch").builder(ctx, **options)
            return _CachedRun(base=self._drive(algorithm))

        entry, hit = self.store.get_or_build(key, build)
        return self._served_report(entry.base, entry.base.solution, hit, start)

    def _query_outliers(
        self, spec: QuerySpec, backend: str | None, start: float
    ) -> StreamingReport:
        options = dict(spec.options)
        key = SketchKey(
            fingerprint=self._fingerprint,
            family="outliers/sketch",
            config=(
                float(spec.outlier_fraction),
                _canonical_options(options),
                self.seed,
                self.order,
                self.stream_seed,
                self.batch_size,
            ),
        )

        def build() -> _CachedAlgorithm:
            ctx = self._context(spec, backend)
            algorithm = get_solver("outliers/sketch").builder(ctx, **options)
            base = self._drive(algorithm)
            return _CachedAlgorithm(algorithm=algorithm, base=base)

        entry, hit = self.store.get_or_build(key, build)
        # query() always receives the backend explicitly, so the entry's own
        # construction-time default (whichever query built it) never leaks.
        solution_list, _outcomes = entry.algorithm.query(
            forbidden=spec.forbidden, coverage_backend=backend
        )
        solution = tuple(dict.fromkeys(int(s) for s in solution_list))
        return self._served_report(entry.base, solution, hit, start)

    # ------------------------------------------------------------------ #
    # shared plumbing
    # ------------------------------------------------------------------ #
    def _context(self, spec: QuerySpec, backend: str | None) -> ProblemContext:
        """The ProblemContext a ``solve()`` with the engine's settings builds."""
        return ProblemContext(
            graph=self._graph,
            problem=spec.problem,
            k=spec.k if spec.k is not None else 1,
            outlier_fraction=spec.outlier_fraction or 0.0,
            seed=self.seed,
            instance=self._instance,
            coverage_backend=backend,
        )

    def _drive(self, algorithm: Any) -> StreamingReport:
        """One full build: stream the dataset through a fresh algorithm.

        Matches ``solve(..., stream=StreamSpec(order, stream_seed,
        batch_size))`` event for event, so cached reports carry the same
        pass/space/extra numbers a fresh run records.
        """
        stream = EdgeStream.from_graph(
            self._graph, order=self.order, seed=self.stream_seed
        )
        extra: dict[str, Any] = {"stream_order": self.order}
        if self.batch_size is not None:
            extra["batch_size"] = self.batch_size
        return StreamingRunner(self._graph).run(
            algorithm, stream, batch_size=self.batch_size, extra=extra
        )

    def _served_report(
        self, base: StreamingReport, solution: tuple[int, ...], hit: bool, start: float
    ) -> StreamingReport:
        """A fresh report for this query, re-evaluated on the true graph."""
        coverage = self._graph.coverage(solution)
        total = self._graph.num_elements
        timings = dict(base.timings)
        timings["solve"] = clock.perf_counter() - start
        extra = dict(base.extra)
        extra["served"] = True
        extra["cache_hit"] = bool(hit)
        return StreamingReport(
            algorithm=base.algorithm,
            arrival_model=base.arrival_model,
            solution=solution,
            coverage=coverage,
            coverage_fraction=(coverage / total) if total else 1.0,
            solution_size=len(solution),
            passes=base.passes,
            space_peak=base.space_peak,
            space_budget=base.space_budget,
            stream_events=base.stream_events,
            timings=timings,
            extra=extra,
        )
