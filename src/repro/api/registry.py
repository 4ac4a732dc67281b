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
from typing import Any, Callable, Iterable

from repro.coverage.bipartite import BipartiteGraph
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


class ProblemContext:
    """The resolved problem a builder constructs its solver for.

    ``m`` mirrors the historical call sites (``max(1, num_elements)``) so
    solvers built through the registry see exactly the arguments the
    hand-wired entry points used to pass.

    ``columns`` marks a **column-backed** context: the problem arrived as a
    memory-mapped columnar directory
    (:class:`repro.coverage.io.ColumnarEdges`) and no ``graph`` was given.
    Such a context answers ``n``, ``m`` and :meth:`coverage` from the
    columns and builds ``graph`` only when a solver reads it (streaming and
    offline solvers do; the distributed family shards the columns and never
    does).  Its set ids are checked against ``num_sets`` up front, with the
    error the graph build would raise.
    """

    def __init__(
        self,
        graph: BipartiteGraph | None = None,
        problem: str = "k_cover",
        k: int = 1,
        outlier_fraction: float = 0.0,
        seed: int = 0,
        instance: CoverageInstance | None = None,
        columns: Any | None = None,
    ) -> None:
        if graph is None:
            if columns is None:
                raise SpecError("ProblemContext needs a graph or columns")
            columns.check_set_ids()
        self._graph = graph
        self.problem = problem
        self.k = k
        self.outlier_fraction = outlier_fraction
        self.seed = seed
        self.instance = instance
        self.columns = columns

    @property
    def graph(self) -> BipartiteGraph:
        """The input graph (built from ``columns`` on first read)."""
        if self._graph is None:
            self._graph = self.columns.to_graph()
        return self._graph

    @property
    def n(self) -> int:
        """Number of sets."""
        if self.columns is not None:
            return max(1, self.columns.num_sets)
        return self.graph.num_sets

    @property
    def num_elements(self) -> int:
        """Distinct elements of the input (may be 0)."""
        if self.columns is not None:
            return self.columns.num_distinct_elements
        return self.graph.num_elements

    @property
    def m(self) -> int:
        """Number of elements (at least 1, as the constructors require)."""
        return max(1, self.num_elements)

    def coverage(self, set_ids: Iterable[int]) -> int:
        """``C(S)`` on the input, from the columns of a column-backed context."""
        if self.columns is not None:
            return self.columns.coverage(set_ids)
        return self.graph.coverage(set_ids)


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
