"""Offline greedy algorithms for coverage problems.

These are the classical algorithms the paper composes with its sketch:

* :func:`greedy_k_cover` — the ``1 − 1/e`` greedy for maximum coverage
  (Nemhauser–Wolsey–Fisher).
* :func:`greedy_set_cover` — the ``ln m`` greedy for set cover.
* :func:`greedy_partial_cover` — greedy until a ``1 − λ`` fraction of
  elements is covered (the paper's ``Greedy(k log(1/λ), G)`` covering at
  least ``(1 − λ) Opt_k``).

All of them run one lazy selection loop, :func:`_select`: a max-heap of
stale gains in which only a fresh top is taken, so ties go to the smallest
set id.  The loop owns that policy and the stop rules; what it asks of the
coverage format — each set's size, the gains of some stale sets, and taking
a set — comes from a small evaluator.  :class:`_GraphGains` reads a
:class:`BipartiteGraph` (a full instance or one of the paper's sketches —
that composability is precisely Theorem 2.7's point);
:class:`_ColumnGains` reads ``(set_id, element)`` columns through a CSR by
set, for callers that hold edges as arrays (the distributed coordinator's
merged sketch, :func:`greedy_k_cover_columns`); :class:`_KernelGains` reads
a :class:`repro.coverage.bitset.BitsetCoverage` snapshot passed as
``kernel=``, refreshing up to ``_LAZY_CHUNK`` stale tops per vectorised
call, which is substantially faster on dense instances.  Every evaluator
selects the same sets, so ``kernel=`` never changes a result.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.coverage.bipartite import (
    BipartiteGraph,
    check_parallel_columns,
    check_set_column,
    run_starts,
)
from repro.errors import InfeasibleError
from repro.utils.validation import check_fraction, check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a hard import
    from repro.coverage.bitset import BitsetCoverage

__all__ = [
    "GreedyResult",
    "greedy_k_cover",
    "greedy_k_cover_columns",
    "greedy_set_cover",
    "greedy_partial_cover",
    "greedy_order",
]

#: How many stale heap tops the kernel evaluator re-evaluates per vectorised
#: :meth:`~repro.coverage.bitset.BitsetCoverage.gains_for` call.  Small
#: enough that little work is wasted when the refreshed top stays on top (the
#: common CELF case), large enough to amortise the per-call numpy overhead
#: (measured best around 32 on zipf-heavy workloads whose gains decay fast
#: between steps).
_LAZY_CHUNK = 32


@dataclass
class GreedyResult:
    """Outcome of a greedy run.

    Attributes
    ----------
    selected:
        Chosen set ids, in selection order.
    coverage:
        Number of elements covered on the graph the greedy ran on.
    gains:
        The marginal gain realised at each selection step.
    evaluations:
        Number of marginal-gain evaluations performed (a proxy for time).
    """

    selected: list[int]
    coverage: int
    gains: list[int] = field(default_factory=list)
    evaluations: int = 0

    @property
    def size(self) -> int:
        """Number of selected sets."""
        return len(self.selected)


class _GraphGains:
    """Gains over a graph's Python sets, one stale set per refresh."""

    width = 1

    def __init__(self, graph: BipartiteGraph) -> None:
        self._graph = graph
        self._covered: set[int] = set()
        self.sizes = [graph.set_degree(set_id) for set_id in graph.set_ids()]

    def refresh(self, stale: list[int]) -> list[int]:
        return [self._graph.marginal_gain(set_id, self._covered) for set_id in stale]

    def take(self, set_id: int) -> None:
        self._covered |= self._graph.elements_of(set_id)


class _ColumnGains:
    """Gains over ``(set_id, element)`` columns: a CSR by set and a boolean
    mask of the covered element ranks, one stale set per refresh."""

    width = 1

    def __init__(self, num_sets: int, set_ids: np.ndarray, elements: np.ndarray) -> None:
        offsets, self._members, num_elements = _set_major_csr(num_sets, set_ids, elements)
        self._bounds = offsets.tolist()
        self._covered = np.zeros(num_elements, dtype=bool)
        self.sizes = np.diff(offsets).tolist()

    def _rows(self, set_id: int) -> np.ndarray:
        return self._members[self._bounds[set_id] : self._bounds[set_id + 1]]

    def refresh(self, stale: list[int]) -> list[int]:
        return [
            len(rows) - int(np.count_nonzero(self._covered[rows]))
            for rows in map(self._rows, stale)
        ]

    def take(self, set_id: int) -> None:
        self._covered[self._rows(set_id)] = True


class _KernelGains:
    """Gains over a packed kernel's bit rows, up to ``_LAZY_CHUNK`` stale
    sets per vectorised refresh.  The covered row is this run's own, so a
    cached kernel stays read-only and can be shared across threads."""

    width = _LAZY_CHUNK

    def __init__(self, kernel: "BitsetCoverage") -> None:
        self._kernel = kernel
        self._covered = kernel.empty_bits()
        self.sizes = kernel.set_sizes.tolist()

    def refresh(self, stale: list[int]) -> list[int]:
        ids = np.asarray(stale, dtype=np.intp)
        return self._kernel.gains_for(ids, self._covered).tolist()

    def take(self, set_id: int) -> None:
        np.bitwise_or(self._covered, self._kernel.row(set_id), out=self._covered)


def _gains(
    graph: BipartiteGraph, kernel: "BitsetCoverage | None"
) -> _GraphGains | _KernelGains:
    """The kernel's evaluator when one is given, else the graph's."""
    return _GraphGains(graph) if kernel is None else _KernelGains(kernel)


def _select(
    gains: _GraphGains | _ColumnGains | _KernelGains,
    *,
    max_sets: int | None,
    target_coverage: int | None,
    forbidden: Iterable[int] = (),
) -> GreedyResult:
    """The lazy-greedy selection loop every greedy entry point runs.

    Runs until either ``max_sets`` sets are chosen, ``target_coverage``
    elements are covered, or no remaining set has positive marginal gain.
    """
    blocked = frozenset(forbidden)
    limit = math.inf if max_sets is None else max_sets
    target = math.inf if target_coverage is None else target_coverage
    selected: list[int] = []
    realised: list[int] = []
    covered = 0

    # Max-heap of (-cached_gain, set_id, version). Python's heapq is a
    # min-heap, hence the negation. ``version`` is the number of selections
    # made when the gain was computed; set sizes are the exact gains at
    # version 0.  A stale top is re-evaluated (with up to ``gains.width - 1``
    # further stale tops) and pushed back; only a *fresh* top is ever taken,
    # so ties resolve to the smallest set id among the maximal-gain
    # candidates, whatever the refresh width.
    heap = [
        (-size, set_id, 0) for set_id, size in enumerate(gains.sizes) if set_id not in blocked
    ]
    heapq.heapify(heap)
    evaluations = len(heap)

    while heap and len(selected) < limit and covered < target:
        version = len(selected)
        neg_gain, set_id, stamp = heapq.heappop(heap)
        if stamp != version:
            stale = [set_id]
            while len(stale) < gains.width and heap and heap[0][2] != version:
                stale.append(heapq.heappop(heap)[1])
            evaluations += len(stale)
            for set_id, gain in zip(stale, gains.refresh(stale)):
                heapq.heappush(heap, (-gain, set_id, version))
            continue
        if neg_gain >= 0:
            break
        selected.append(set_id)
        realised.append(-neg_gain)
        covered -= neg_gain
        gains.take(set_id)

    return GreedyResult(
        selected=selected, coverage=covered, gains=realised, evaluations=evaluations
    )


def greedy_k_cover(
    graph: BipartiteGraph,
    k: int,
    *,
    forbidden: Iterable[int] = (),
    kernel: "BitsetCoverage | None" = None,
) -> GreedyResult:
    """The ``1 − 1/e`` greedy for k-cover (``Greedy(k, G)`` in the paper).

    Parameters
    ----------
    graph:
        The instance (or sketch) to maximise coverage on.
    k:
        Number of sets to pick.  Fewer may be returned if coverage saturates.
    forbidden:
        Set ids the greedy is not allowed to pick (used by tests and by
        residual constructions).
    kernel:
        Optional packed-bitset snapshot of ``graph``; when given the gains
        are evaluated on its bit rows (same selection, much faster on dense
        instances).
    """
    check_positive_int(k, "k")
    return _select(
        _gains(graph, kernel), max_sets=k, target_coverage=None, forbidden=forbidden
    )


def _set_major_csr(
    num_sets: int, set_ids: np.ndarray, elements: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """The distinct edges of ``(set_id, element)`` columns as a CSR by set.

    Elements are replaced by their dense rank among the distinct elements.
    Returns ``(offsets, ranks, num_elements)``: the members of set ``s`` are
    ``ranks[offsets[s]:offsets[s + 1]]``, ascending and without repeats, and
    ``num_elements`` is the number of distinct elements.  Columns of unequal
    length raise :class:`~repro.errors.SpecError`, and a set id outside
    ``[0, num_sets)`` :class:`~repro.errors.InvalidInstanceError`.
    """
    set_ids, elements = check_parallel_columns(set_ids, elements)
    check_set_column(set_ids, num_sets)
    distinct, ranks = np.unique(elements, return_inverse=True)
    order = np.lexsort((ranks, set_ids))
    owners, ranks = set_ids[order].astype(np.intp), ranks[order]
    fresh = run_starts(owners) | run_starts(ranks)
    offsets = np.zeros(num_sets + 1, dtype=np.int64)
    np.cumsum(np.bincount(owners[fresh], minlength=num_sets), out=offsets[1:])
    return offsets, ranks[fresh], len(distinct)


def greedy_k_cover_columns(
    set_ids: np.ndarray,
    elements: np.ndarray,
    num_sets: int,
    k: int,
    *,
    forbidden: Iterable[int] = (),
    kernel: "BitsetCoverage | None" = None,
) -> GreedyResult:
    """:func:`greedy_k_cover` on the graph of ``(set_id, element)`` columns.

    Returns what ``greedy_k_cover(BipartiteGraph.from_columns(num_sets,
    set_ids, elements), k, kernel=kernel)`` returns — same selection,
    coverage, gains and evaluation count — without building the graph.
    ``kernel`` is an optional packed snapshot of the same columns
    (:meth:`~repro.coverage.bitset.BitsetCoverage.from_columns`).
    """
    check_positive_int(k, "k")
    gains = (
        _ColumnGains(num_sets, set_ids, elements) if kernel is None else _KernelGains(kernel)
    )
    return _select(gains, max_sets=k, target_coverage=None, forbidden=forbidden)


def greedy_set_cover(
    graph: BipartiteGraph,
    *,
    allow_partial: bool = False,
    forbidden: Iterable[int] = (),
    kernel: "BitsetCoverage | None" = None,
) -> GreedyResult:
    """The ``ln m`` greedy for set cover.

    Raises :class:`InfeasibleError` when the family does not cover the ground
    set, unless ``allow_partial`` is true (then the maximal achievable
    coverage is returned).  ``forbidden`` excludes set ids from selection —
    with a nonempty exclusion the remaining family may no longer cover the
    ground set, so pair it with ``allow_partial`` when that is acceptable.
    """
    result = _select(
        _gains(graph, kernel),
        max_sets=None,
        target_coverage=graph.num_elements,
        forbidden=forbidden,
    )
    if result.coverage < graph.num_elements and not allow_partial:
        raise InfeasibleError(
            f"the family covers only {result.coverage} of {graph.num_elements} elements"
        )
    return result


def greedy_partial_cover(
    graph: BipartiteGraph,
    target_fraction: float,
    *,
    forbidden: Iterable[int] = (),
    kernel: "BitsetCoverage | None" = None,
) -> GreedyResult:
    """Greedy until at least ``target_fraction`` of the elements are covered.

    Used for set cover with outliers: covering a ``1 − λ`` fraction.
    The target is rounded up to a whole number of elements.
    """
    check_fraction(target_fraction, "target_fraction")
    target = math.ceil(target_fraction * graph.num_elements - 1e-9)
    target = min(graph.num_elements, max(0, target))
    result = _select(
        _gains(graph, kernel), max_sets=None, target_coverage=target, forbidden=forbidden
    )
    if result.coverage < target:
        raise InfeasibleError(
            f"cannot cover {target} elements; maximum achievable is {result.coverage}"
        )
    return result


def greedy_order(graph: BipartiteGraph, *, kernel: "BitsetCoverage | None" = None) -> list[int]:
    """The full greedy selection order (all sets with positive gain)."""
    return _select(_gains(graph, kernel), max_sets=None, target_coverage=None).selected
