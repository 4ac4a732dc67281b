"""Offline greedy algorithms for coverage problems.

These are the classical algorithms the paper composes with its sketch:

* :func:`greedy_k_cover` — the ``1 − 1/e`` greedy for maximum coverage
  (Nemhauser–Wolsey–Fisher), implemented lazily with a max-heap so each set's
  marginal gain is re-evaluated only when it might be the best.
* :func:`greedy_set_cover` — the ``ln m`` greedy for set cover.
* :func:`greedy_partial_cover` — greedy until a ``1 − λ`` fraction of
  elements is covered (the paper's ``Greedy(k log(1/λ), G)`` covering at
  least ``(1 − λ) Opt_k``).

All functions operate directly on a :class:`BipartiteGraph` — the same code
path is used whether the graph is a full instance or one of the paper's
sketches (that composability is precisely Theorem 2.7's point).
:func:`greedy_k_cover_columns` is the same k-cover greedy over
``(set_id, element)`` columns, for callers that hold edges as arrays (the
distributed coordinator's merged sketch) and never build a graph.  Every entry
point also accepts ``kernel=``, a :class:`repro.coverage.bitset.BitsetCoverage`
snapshot of the same graph: the selection loop then runs on the kernel's
packed bit rows (vectorised subset-gain re-evaluation under the same lazy
max-heap policy), which is substantially faster on dense instances while
achieving the same coverage up to tie-breaking.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.coverage.bipartite import BipartiteGraph, check_set_column, run_starts
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


def _kernel_greedy(
    kernel: "BitsetCoverage",
    *,
    max_sets: int | None,
    target_coverage: int | None,
    forbidden: frozenset[int] = frozenset(),
) -> GreedyResult:
    """Run the greedy loop on a packed-bitset kernel instead of the graph."""
    selected, coverage, gains, evaluations = kernel.greedy(
        max_sets=max_sets, target_coverage=target_coverage, forbidden=forbidden
    )
    return GreedyResult(
        selected=selected, coverage=coverage, gains=gains, evaluations=evaluations
    )


def _lazy_greedy(
    graph: BipartiteGraph,
    *,
    max_sets: int | None,
    target_coverage: int | None,
    forbidden: frozenset[int] = frozenset(),
) -> GreedyResult:
    """Core lazy-greedy loop shared by the public greedy entry points.

    Runs until either ``max_sets`` sets are chosen, ``target_coverage``
    elements are covered, or no remaining set has positive marginal gain.
    """
    covered: set[int] = set()
    selected: list[int] = []
    gains: list[int] = []
    evaluations = 0

    # Max-heap of (-cached_gain, set_id, version). Python's heapq is a
    # min-heap, hence the negation. ``version`` is the number of selections
    # made when the gain was computed; a stale entry is re-evaluated lazily.
    # Only *fresh* tops are ever selected: a refreshed entry always goes back
    # through the heap, so ties resolve to the smallest set id among the
    # maximal-gain candidates — exactly the argmax tie-break of the eager
    # and kernel (BitsetCoverage) greedy paths, keeping the achieved
    # selection independent of which implementation evaluates it.
    heap: list[tuple[int, int, int]] = []
    for set_id in graph.set_ids():
        if set_id in forbidden:
            continue
        gain = graph.set_degree(set_id)
        evaluations += 1
        heap.append((-gain, set_id, 0))
    heapq.heapify(heap)

    def done() -> bool:
        if max_sets is not None and len(selected) >= max_sets:
            return True
        if target_coverage is not None and len(covered) >= target_coverage:
            return True
        return False

    while heap and not done():
        neg_gain, set_id, version = heapq.heappop(heap)
        if version != len(selected):
            gain = len(graph.elements_of(set_id) - covered)
            evaluations += 1
            heapq.heappush(heap, (-gain, set_id, len(selected)))
            continue
        gain = -neg_gain
        if gain <= 0:
            break
        selected.append(set_id)
        gains.append(gain)
        covered |= graph.elements_of(set_id)

    return GreedyResult(
        selected=selected, coverage=len(covered), gains=gains, evaluations=evaluations
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
        Optional packed-bitset snapshot of ``graph``; when given the
        selection runs on its vectorised lazy path (same coverage up to
        tie-breaking, much faster on dense instances).
    """
    check_positive_int(k, "k")
    if kernel is not None:
        return _kernel_greedy(
            kernel, max_sets=k, target_coverage=None, forbidden=frozenset(forbidden)
        )
    return _lazy_greedy(
        graph, max_sets=k, target_coverage=None, forbidden=frozenset(forbidden)
    )


def _set_major_csr(
    num_sets: int, set_ids: np.ndarray, elements: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """The distinct edges of ``(set_id, element)`` columns as a CSR by set.

    Elements are replaced by their dense rank among the distinct elements.
    Returns ``(offsets, ranks, num_elements)``: the members of set ``s`` are
    ``ranks[offsets[s]:offsets[s + 1]]``, ascending and without repeats, and
    ``num_elements`` is the number of distinct elements.  A set id outside
    ``[0, num_sets)`` raises :class:`~repro.errors.InvalidInstanceError`.
    """
    set_ids = np.asarray(set_ids)
    check_set_column(set_ids, num_sets)
    distinct, ranks = np.unique(np.asarray(elements), return_inverse=True)
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
) -> GreedyResult:
    """:func:`greedy_k_cover` on the graph of ``(set_id, element)`` columns.

    Returns what ``greedy_k_cover(BipartiteGraph.from_columns(num_sets,
    set_ids, elements), k)`` returns — same selection, coverage, gains and
    evaluation count — without building the graph: the edges become a CSR
    by set over dense element ranks, coverage a boolean mask, and the lazy
    heap is the same ``(-gain, set_id, version)`` heap, so ties still go to
    the smallest set id.
    """
    check_positive_int(k, "k")
    offsets, members, num_elements = _set_major_csr(num_sets, set_ids, elements)
    bounds = offsets.tolist()
    blocked = frozenset(forbidden)
    heap = [
        (-(bounds[set_id + 1] - bounds[set_id]), set_id, 0)
        for set_id in range(num_sets)
        if set_id not in blocked
    ]
    heapq.heapify(heap)
    evaluations = len(heap)
    covered = np.zeros(num_elements, dtype=bool)
    selected: list[int] = []
    gains: list[int] = []
    while heap and len(selected) < k:
        neg_gain, set_id, version = heapq.heappop(heap)
        rows = members[bounds[set_id] : bounds[set_id + 1]]
        if version != len(selected):
            gain = len(rows) - int(np.count_nonzero(covered[rows]))
            evaluations += 1
            heapq.heappush(heap, (-gain, set_id, len(selected)))
            continue
        if neg_gain >= 0:
            break
        selected.append(set_id)
        gains.append(-neg_gain)
        covered[rows] = True
    return GreedyResult(
        selected=selected, coverage=sum(gains), gains=gains, evaluations=evaluations
    )


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
    blocked = frozenset(forbidden)
    if kernel is not None:
        result = _kernel_greedy(
            kernel, max_sets=None, target_coverage=graph.num_elements, forbidden=blocked
        )
    else:
        result = _lazy_greedy(
            graph, max_sets=None, target_coverage=graph.num_elements, forbidden=blocked
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
    blocked = frozenset(forbidden)
    if kernel is not None:
        result = _kernel_greedy(
            kernel, max_sets=None, target_coverage=target, forbidden=blocked
        )
    else:
        result = _lazy_greedy(
            graph, max_sets=None, target_coverage=target, forbidden=blocked
        )
    if result.coverage < target:
        raise InfeasibleError(
            f"cannot cover {target} elements; maximum achievable is {result.coverage}"
        )
    return result


def greedy_order(graph: BipartiteGraph, *, kernel: "BitsetCoverage | None" = None) -> list[int]:
    """The full greedy selection order (all sets with positive gain)."""
    if kernel is not None:
        return _kernel_greedy(kernel, max_sets=None, target_coverage=None).selected
    return _lazy_greedy(graph, max_sets=None, target_coverage=None).selected
