"""The solver registry behind :func:`repro.solve`.

Every algorithm in the library — the paper's sketch algorithms, the prior-art
baselines, the offline references and the distributed runner — registers a
*builder* here under a ``family/name`` key together with capability metadata
(which problems it solves, its arrival model, pass count and space class).
The facade resolves names through this table, so new solvers plug into the
CLI, the benchmarks and the analysis layer by registering themselves:

>>> @register_solver(
...     "kcover/my-heuristic", kind="streaming", problems=("k_cover",),
...     arrival="set", passes="1", space="O(k)", summary="toy example")
... def _build(ctx, **options):
...     return MyHeuristic(k=ctx.k, **options)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.coverage.bipartite import BipartiteGraph
from repro.coverage.bitset import LAYOUT, BitsetCoverage, check_coverage_backend
from repro.coverage.instance import CoverageInstance
from repro.errors import SpecError, UnknownSolverError
from repro.utils.registry import NamedRegistry

__all__ = [
    "SOLVER_KINDS",
    "ProblemContext",
    "OfflineOutcome",
    "SolverInfo",
    "register_solver",
    "unregister_solver",
    "get_solver",
    "list_solvers",
    "iter_solvers",
]

#: How a registered solver executes: driven over a stream by the
#: StreamingRunner, run once on the materialized graph, or run as a
#: simulated multi-machine computation.
SOLVER_KINDS = ("streaming", "offline", "distributed")


@dataclass
class ProblemContext:
    """The resolved problem a builder constructs its solver for.

    ``m`` mirrors the historical call sites (``max(1, num_elements)``) so
    solvers built through the registry see exactly the arguments the
    hand-wired entry points used to pass.  ``coverage_backend`` optionally
    names a packed-bitset kernel backend; builders that evaluate the
    coverage function offline fetch a shared snapshot via :meth:`kernel`.

    ``columns`` marks a **column-backed** context: when the problem arrived
    as a memory-mapped columnar directory
    (:class:`repro.coverage.io.ColumnarEdges`), the view is kept alongside
    the materialised graph so solvers with a batched ingestion path (the
    distributed map phase) can consume the mmap'd columns directly instead
    of re-materialising per-edge tuples from ``graph``.

    ``executor`` / ``max_workers`` optionally name a :mod:`repro.parallel`
    executor backend; builders whose solver has an embarrassingly parallel
    phase (the distributed map phase, the ensemble's per-replica greedy)
    default to them, with explicit solver options still winning.
    """

    graph: BipartiteGraph
    problem: str = "k_cover"
    k: int = 1
    outlier_fraction: float = 0.0
    seed: int = 0
    instance: CoverageInstance | None = None
    coverage_backend: str | None = None
    columns: Any | None = None
    executor: str | None = None
    max_workers: int | None = None

    @property
    def n(self) -> int:
        """Number of sets."""
        return self.graph.num_sets

    @property
    def m(self) -> int:
        """Number of elements (at least 1, as the constructors require)."""
        return max(1, self.graph.num_elements)

    def kernel(self):
        """The packed-bitset kernel for ``graph``, or None if not requested.

        Built once per context on first use (packing is the one-off cost the
        vectorised evaluations amortise) and shared by every consumer of the
        context.  Callers that already hold a kernel of the same graph (e.g.
        a :class:`~repro.api.facade.Session` sweeping many solvers) can
        preseed it via :meth:`preset_kernel` to skip re-packing.
        """
        if getattr(self, "_kernel", None) is not None:
            return self._kernel
        if self.coverage_backend is None:
            return None
        check_coverage_backend(self.coverage_backend)
        self._kernel = BitsetCoverage(self.graph)
        return self._kernel

    def preset_kernel(self, kernel) -> None:
        """Install an already-packed kernel of ``graph`` for :meth:`kernel`.

        The kernel must snapshot this context's graph; a mismatched kernel
        would silently evaluate coverage on the wrong bit rows, so the
        shape is checked up front.
        """
        if kernel is None:
            return
        if (
            kernel.num_sets != self.graph.num_sets
            or kernel.num_elements != self.graph.num_elements
        ):
            raise SpecError(
                f"coverage kernel snapshots a ({kernel.num_sets} sets, "
                f"{kernel.num_elements} elements) graph, but the problem graph "
                f"has ({self.graph.num_sets} sets, {self.graph.num_elements} "
                "elements); pack the kernel from the same graph"
            )
        self._kernel = kernel
        if self.coverage_backend is None:
            self.coverage_backend = LAYOUT


@dataclass
class OfflineOutcome:
    """What an offline builder returns: a solution plus optional metrics."""

    algorithm: str
    solution: list[int]
    extra: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SolverInfo:
    """A registry entry: the builder plus its capability metadata."""

    name: str
    kind: str
    problems: tuple[str, ...]
    arrival: str | None
    passes: str
    space: str
    summary: str
    builder: Callable[..., Any]

    @property
    def family(self) -> str:
        """The ``family`` part of a ``family/name`` registry key."""
        return self.name.split("/", 1)[0]

    def solves(self, problem: str) -> bool:
        """Whether the solver handles the given problem kind."""
        return problem in self.problems

    def capabilities(self) -> dict[str, Any]:
        """Metadata as a plain dict (for tables and ``list-solvers``)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "problems": ",".join(self.problems),
            "arrival": self.arrival or "-",
            "passes": self.passes,
            "space": self.space,
            "summary": self.summary,
        }


_REGISTRY: NamedRegistry[SolverInfo] = NamedRegistry(
    "solver", UnknownSolverError, "repro.list_solvers()"
)


def register_solver(
    name: str,
    *,
    kind: str = "streaming",
    problems: tuple[str, ...] | list[str],
    arrival: str | None = None,
    passes: str = "1",
    space: str = "",
    summary: str = "",
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator registering a solver builder under ``name``.

    The builder receives a :class:`ProblemContext` followed by the solver
    options as keyword arguments, and returns — depending on ``kind`` — a
    streaming algorithm, an :class:`OfflineOutcome`, or a distributed run
    report.
    """
    if kind not in SOLVER_KINDS:
        raise SpecError(f"unknown solver kind {kind!r}; expected one of {SOLVER_KINDS}")
    if kind == "streaming" and arrival not in ("edge", "set"):
        raise SpecError(f"streaming solver {name!r} must declare arrival 'edge' or 'set'")
    problems = tuple(problems)
    if not problems:
        raise SpecError(f"solver {name!r} must declare at least one problem kind")

    def decorator(builder: Callable[..., Any]) -> Callable[..., Any]:
        _REGISTRY.add(
            name,
            SolverInfo(
                name=name,
                kind=kind,
                problems=problems,
                arrival=arrival,
                passes=passes,
                space=space,
                summary=summary,
                builder=builder,
            ),
        )
        return builder

    return decorator


def unregister_solver(name: str) -> None:
    """Remove a registered solver (mainly for tests and plugins)."""
    _REGISTRY.remove(name)


def get_solver(name: str) -> SolverInfo:
    """Look up a solver, raising :class:`UnknownSolverError` with hints."""
    return _REGISTRY.get(name)


def list_solvers(*, problem: str | None = None, kind: str | None = None) -> list[str]:
    """Sorted solver names, optionally filtered by problem kind and/or kind."""
    return [
        info.name
        for info in _REGISTRY.values()
        if (problem is None or info.solves(problem))
        and (kind is None or info.kind == kind)
    ]


def iter_solvers() -> list[SolverInfo]:
    """All registry entries, sorted by name."""
    return _REGISTRY.values()
