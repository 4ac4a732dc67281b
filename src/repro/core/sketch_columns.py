"""``H_{<=n}`` as rank-sorted columns — the form sketches travel in.

Every machine of a distributed run ranks elements with the same hash, so a
sketch is fully described by the ``(rank, element, set)`` rows it keeps, its
threshold ``p*`` and the elements whose degree cap bit.  Merging two sketches
never needs an adjacency graph: it is Algorithm 1's admission re-run over
the union of their rows.  :class:`SketchColumns` holds exactly that state as
three parallel numpy columns kept sorted by ``(rank, element, set)``
(Algorithm 1's admission order, which :func:`admission_order` computes), so
a process pool pickles it as a few flat buffers and a fold is pure array
work with no re-hash.
:meth:`SketchColumns.greedy_k_cover` runs the offline greedy on the rows
themselves, which is how every post-stream greedy reads its sketch: the
streaming k-cover's result, each Algorithm 4 guess check (Algorithm 5's
:meth:`~repro.core.setcover_outliers.StreamingSetCoverOutliers.query`
included), the ensemble's best-of-R, the serve store's k-cover hits and the
distributed round 2.  The columns never change, so they keep the CSR by set
and the packed kernel the greedy reads, built by the first call that needs
them; concurrent calls share both read-only.
:meth:`SketchColumns.to_sketch` builds the :class:`CoverageSketch` a consumer
that wants a graph needs, in one bulk :meth:`BipartiteGraph.from_columns`
call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.coverage.bipartite import BipartiteGraph, run_starts
from repro.coverage.bitset import BitsetCoverage, check_coverage_backend
from repro.core.params import SketchParams
from repro.core.sketch import CoverageSketch
from repro.offline.greedy import GreedyResult, _set_major_csr, greedy_k_cover_columns

__all__ = ["SketchColumns", "admission_order", "element_starts"]


def _no_elements() -> np.ndarray:
    return np.empty(0, dtype=np.uint64)


@dataclass(frozen=True, eq=False)
class SketchColumns:
    """One sketch's stored edges, sorted by ``(rank, element, set)``.

    Attributes
    ----------
    ranks:
        ``float64`` hash rank of each row's element.
    elements, set_ids:
        ``uint64`` edge endpoints; each element's rows are contiguous.
    threshold:
        The sketch's sampling threshold ``p*``.
    truncated:
        Sorted unique ``uint64`` ids of elements that lost edges to the
        degree cap.
    """

    ranks: np.ndarray
    elements: np.ndarray
    set_ids: np.ndarray
    threshold: float
    truncated: np.ndarray = field(default_factory=_no_elements)
    # The rows' CSR by set and their packed kernel, per set count; the
    # columns never change.
    _csr: dict[int, tuple[np.ndarray, np.ndarray, int]] = field(
        default_factory=dict, init=False, repr=False
    )
    _kernels: dict[int, BitsetCoverage] = field(
        default_factory=dict, init=False, repr=False
    )

    @property
    def num_edges(self) -> int:
        """Stored edges (rows)."""
        return len(self.ranks)

    @property
    def num_elements(self) -> int:
        """Distinct elements stored (each element's rows are contiguous)."""
        return len(element_starts(self.elements))

    def greedy_k_cover(
        self,
        num_sets: int,
        k: int,
        *,
        forbidden: Iterable[int] = (),
        coverage_backend: str | None = None,
    ) -> GreedyResult:
        """The offline greedy on these rows, building no graph.

        Returns what ``greedy_k_cover(self.to_sketch(params).graph, k,
        forbidden=forbidden, kernel=kernel_for(graph, coverage_backend))``
        returns for ``params.num_sets == num_sets``: with a backend and at
        least one row the gains come from a kernel packed by
        :meth:`~repro.coverage.bitset.BitsetCoverage.from_columns`, else
        from the rows' CSR by set.  Either is built by the first call that
        needs it and reused by the next ones (the guess checks and queries
        of a set-cover solve, the hits of a served sketch).  Two threads
        may race to build one; both results are read-only and equal, and
        the last assignment wins.
        """
        check_coverage_backend(coverage_backend)
        kernel = csr = None
        if coverage_backend is not None and self.num_edges > 0:
            kernel = self._kernels.get(num_sets)
            if kernel is None:
                kernel = self._kernels[num_sets] = BitsetCoverage.from_columns(
                    num_sets, self.set_ids, self.elements
                )
        else:
            csr = self._csr.get(num_sets)
            if csr is None:
                csr = self._csr[num_sets] = _set_major_csr(num_sets, self.set_ids, self.elements)
        return greedy_k_cover_columns(
            self.set_ids, self.elements, num_sets, k, forbidden=forbidden, kernel=kernel, csr=csr
        )

    def to_sketch(self, params: SketchParams) -> CoverageSketch:
        """The :class:`CoverageSketch` of these rows, built in one bulk pass.

        Equal to the sketch an :meth:`BipartiteGraph.add_edge` loop over the
        rows in order would give: same graph, same ``elements()`` order,
        ``element_hashes`` in rank order.
        """
        starts = element_starts(self.elements)
        return CoverageSketch(
            graph=BipartiteGraph.from_columns(
                params.num_sets, self.set_ids, self.elements
            ),
            params=params,
            threshold=self.threshold,
            element_hashes=dict(
                zip(self.elements[starts].tolist(), self.ranks[starts].tolist())
            ),
            truncated_elements=frozenset(self.truncated.tolist()),
        )


def element_starts(elements: np.ndarray) -> np.ndarray:
    """Row index where each run of equal elements begins."""
    return np.flatnonzero(run_starts(elements))


def admission_order(
    ranks: np.ndarray, elements: np.ndarray, set_ids: np.ndarray
) -> np.ndarray:
    """The row order by ``(rank, element, set)``: Algorithm 1's admission order.

    The same permutation as ``np.lexsort((set_ids, elements, ranks))`` for
    ``float64`` ranks and ``uint64`` ids, from two cheap sorts instead of a
    three-key lexsort.  A stable sort by rank merges already-sorted runs (a
    fold's inputs) in linear time.  A rank names one element unless hashes
    tie, so each equal-rank group is one element, and one stable sort of
    ``group × (max set id + 1) + set id`` orders each element's owners.
    Ranks that two distinct elements share, a NaN rank, or a packed key past
    ``int64`` fall back to the lexsort.
    """
    by_rank = np.argsort(ranks, kind="stable")
    if len(by_rank) < 2:
        return by_rank
    ranks, elements, set_ids = ranks[by_rank], elements[by_rank], set_ids[by_rank]
    new_rank = run_starts(ranks)
    width = int(set_ids.max()) + 1
    tied = bool((run_starts(elements) & ~new_rank).any()) or bool(np.isnan(ranks[-1]))
    if tied or int(np.count_nonzero(new_rank)) * width > np.iinfo(np.int64).max:
        return by_rank[np.lexsort((set_ids, elements, ranks))]
    keys = new_rank.astype(np.int64)  # a bool cumsum is several times slower
    np.cumsum(keys, out=keys)
    keys -= 1
    keys *= width
    keys += set_ids.astype(np.int64)
    return by_rank[np.argsort(keys, kind="stable")]
