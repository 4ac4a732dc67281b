"""Vectorised coverage evaluation with packed bitsets.

Greedy, local search and the experiment sweeps evaluate ``C(S)`` thousands of
times; the pure-Python set unions in :class:`BipartiteGraph` are fine for
streaming-sized sketches but become the bottleneck for large offline
reference runs.  Following the HPC guidance (vectorise the hot loop, keep the
algorithmic code unchanged), :class:`BitsetCoverage` packs every set's
membership into bit rows so that

* union of a family  = bitwise OR over rows,
* coverage value     = popcount of the union,
* marginal gain      = popcount of ``candidate AND NOT covered``,

all as whole-array operations.  Rows are packed 64 elements per ``uint64``
lane; popcounts use ``np.bitwise_count`` and fall back to a 256-entry byte
table over a ``uint8`` view on numpy builds without it.  The layout is an
implementation detail: every query is bit-for-bit identical to the
set-based evaluation (property-tested), so ``coverage_backend`` only says
*whether* a solver's offline phase runs on a kernel (:data:`COVERAGE_BACKENDS`).

On top of the kernels, :meth:`greedy_k_cover` is *lazy* by default
(CELF-style): a max-heap of stale upper bounds over the vectorised marginal
gains means each selection step re-evaluates only the candidates whose bound
still beats the current best, via the :meth:`gains_for` subset kernel —
instead of recomputing all ``n`` gains per step as the eager path does.  The
evaluator is a drop-in read-only companion to a :class:`BipartiteGraph`:
results are bit-for-bit identical (property-tested) and substantially faster
on dense instances (``benchmarks/bench_offline_throughput.py`` quantifies the
difference).
"""

from __future__ import annotations

import functools
import heapq
from typing import Callable, Iterable, Sequence

import numpy as np

from repro import obs
from repro.coverage.bipartite import BipartiteGraph
from repro.errors import SpecError
from repro.obs import clock

__all__ = [
    "COVERAGE_BACKENDS",
    "LAYOUT",
    "BitsetCoverage",
    "KernelCache",
    "check_coverage_backend",
    "kernel_for",
    "pack_rows",
    "popcount_rows",
]

#: The one packed layout (64 elements per ``uint64`` lane); reports record
#: it as the ``coverage_backend`` a kernel run used.
LAYOUT = "words"

#: Valid non-``None`` ``coverage_backend`` values; ``"auto"`` names the same
#: layout, and ``None`` keeps the set-based path.
COVERAGE_BACKENDS = ("auto", LAYOUT)

#: Lookup table with the popcount of every byte value (fallback path).
_POPCOUNT_TABLE = np.array([bin(value).count("1") for value in range(256)], dtype=np.int64)

#: numpy >= 2.0 ships a native popcount ufunc; the byte table is the fallback.
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def check_coverage_backend(backend: str | None) -> None:
    """Raise :class:`SpecError` unless ``backend`` is ``None`` or a valid name."""
    if backend is not None and backend not in COVERAGE_BACKENDS:
        raise SpecError(
            f"unknown coverage_backend {backend!r}; "
            f"expected one of {COVERAGE_BACKENDS} or None"
        )


def _pack_words(dense: np.ndarray) -> np.ndarray:
    packed = np.packbits(dense, axis=1)
    byte_lanes = packed.shape[1]
    word_lanes = -(-byte_lanes // 8)
    if byte_lanes != word_lanes * 8:
        padded = np.zeros((packed.shape[0], word_lanes * 8), dtype=np.uint8)
        padded[:, :byte_lanes] = packed
        packed = padded
    return np.ascontiguousarray(packed).view(np.uint64)


def _popcount_words(rows: np.ndarray, axis: int | None = None) -> np.ndarray | int:
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(rows).sum(axis=axis, dtype=np.int64)
    # Byte-table fallback: reinterpret each word as its 8 bytes.  The view
    # multiplies the last-axis length by 8, so per-row sums stay per-row.
    bytes_view = np.ascontiguousarray(rows).view(np.uint8)
    return _POPCOUNT_TABLE[bytes_view].sum(axis=axis)


#: Kernel-primitive timings, observed only while tracing is enabled; the
#: disabled path through :func:`_timed_kernel_op` is one enabled() check.
_PACK_SECONDS = obs.global_metrics().histogram(
    "kernel.pack_seconds", help="per-call packing time of bitset rows"
)
_POPCOUNT_SECONDS = obs.global_metrics().histogram(
    "kernel.popcount_seconds", help="per-call popcount reduction time"
)


def _timed_kernel_op(
    fn: Callable[..., "np.ndarray | int"], histogram: "obs.Histogram"
) -> Callable[..., "np.ndarray | int"]:
    """Wrap a pack/popcount primitive with an enabled-gated timer.

    ``functools.wraps`` keeps the raw callable reachable as ``__wrapped__``
    (the overhead benchmark builds its no-obs baseline from it).
    """

    @functools.wraps(fn)
    def wrapper(*args: object, **kwargs: object) -> "np.ndarray | int":
        if not obs.enabled():
            return fn(*args, **kwargs)
        start = clock.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            histogram.observe(clock.perf_counter() - start)

    return wrapper


#: ``(num_rows, num_elements) bool -> (num_rows, words) uint64`` packing.
pack_rows = _timed_kernel_op(_pack_words, _PACK_SECONDS)

#: ``(rows, axis) -> int64`` summed popcount of packed rows over ``axis``
#: (or everything when ``axis`` is None).
popcount_rows = _timed_kernel_op(_popcount_words, _POPCOUNT_SECONDS)


def kernel_for(graph: BipartiteGraph, backend: str | None) -> "BitsetCoverage | None":
    """A packed kernel of ``graph``, or ``None`` when no backend is requested.

    The shared guard for solvers whose *offline phase* optionally runs on a
    kernel (the streaming family packs its sketch, the distributed
    coordinator its merged sketch): ``backend=None`` keeps the set-based
    path, and an empty graph skips packing — there is nothing to evaluate,
    and callers' greedy handles the graph directly.
    """
    check_coverage_backend(backend)
    if backend is None or graph.num_edges == 0:
        return None
    return BitsetCoverage(graph)

#: How many stale heap entries the lazy greedy re-evaluates per vectorised
#: :meth:`BitsetCoverage.gains_for` call.  Small enough that little work is
#: wasted when the refreshed top stays on top (the common CELF case), large
#: enough to amortise the per-call numpy overhead (measured best around 32
#: on zipf-heavy workloads whose gains decay fast between steps).
_LAZY_CHUNK = 32


class BitsetCoverage:
    """Packed-bitset evaluator of the coverage function of a fixed graph.

    Parameters
    ----------
    graph:
        The bipartite membership graph; it is snapshotted at construction
        (later mutations of the graph are not reflected).
    """

    def __init__(self, graph: BipartiteGraph) -> None:
        self._num_sets = graph.num_sets
        elements = np.fromiter(graph.elements(), dtype=np.int64, count=graph.num_elements)
        elements.sort()
        self._elements = elements
        self._num_elements = len(elements)
        width = max(1, self._num_elements)
        dense = np.zeros((graph.num_sets, width), dtype=bool)
        sizes = np.zeros(graph.num_sets, dtype=np.int64)
        for set_id in graph.set_ids():
            members = graph.elements_of(set_id)
            if not members:
                continue
            ids = np.fromiter(members, dtype=np.int64, count=len(members))
            dense[set_id, np.searchsorted(elements, ids)] = True
            sizes[set_id] = len(members)
        # Rows are packed along the element axis: shape (n, words), uint64.
        self._packed = pack_rows(dense)
        self._set_sizes = sizes

    # ------------------------------------------------------------------ #
    # basic facts
    # ------------------------------------------------------------------ #
    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self._num_sets

    @property
    def num_elements(self) -> int:
        """Number of elements in the snapshot."""
        return self._num_elements

    def set_size(self, set_id: int) -> int:
        """``|S|`` for one set."""
        return int(self._set_sizes[set_id])

    @property
    def nbytes(self) -> int:
        """Bytes held by the packed rows (what a cache entry keeps resident)."""
        return int(self._packed.nbytes)

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def count_bits(self, bits: np.ndarray) -> int:
        """Number of elements in a packed bit-row from this evaluator."""
        return int(popcount_rows(bits, None))

    @staticmethod
    def _as_index(set_ids: Iterable[int] | np.ndarray) -> np.ndarray:
        """Index array of set ids, with no intermediate Python list.

        numpy integer arrays pass through as-is (the hot sweep path); other
        iterables are converted element-wise.
        """
        if isinstance(set_ids, np.ndarray):
            return set_ids.astype(np.intp, copy=False)
        return np.fromiter((int(s) for s in set_ids), dtype=np.intp)

    def empty_bits(self) -> np.ndarray:
        """An all-zero packed bit-row (the union of no sets)."""
        return np.zeros(self._packed.shape[1], dtype=np.uint64)

    def union_bits(self, set_ids: Iterable[int] | np.ndarray) -> np.ndarray:
        """The packed union bit-row of a family of sets."""
        ids = self._as_index(set_ids)
        if ids.size == 0:
            return self.empty_bits()
        return np.bitwise_or.reduce(self._packed[ids], axis=0)

    def coverage(self, set_ids: Iterable[int] | np.ndarray) -> int:
        """``C(S) = |∪ S|``."""
        return self.count_bits(self.union_bits(set_ids))

    def coverage_fraction(self, set_ids: Iterable[int] | np.ndarray) -> float:
        """Fraction of the snapshot's elements covered."""
        if self._num_elements == 0:
            return 1.0
        return self.coverage(set_ids) / self._num_elements

    def marginal_gains(self, covered_bits: np.ndarray) -> np.ndarray:
        """Marginal gain of *every* set against an already-covered bit-row.

        This is the vectorised inner step of eager greedy: one call evaluates
        all ``n`` candidates.  ``covered_bits`` must be a packed row from
        this evaluator (:meth:`union_bits` / :meth:`empty_bits`).
        """
        remaining = np.bitwise_and(self._packed, np.bitwise_not(covered_bits))
        return popcount_rows(remaining, 1)

    def gains_for(
        self, set_ids: Iterable[int] | np.ndarray, covered_bits: np.ndarray
    ) -> np.ndarray:
        """Marginal gains of an index subset of sets (the lazy-greedy kernel).

        Re-evaluates only the ``set_ids`` rows instead of all ``n``; the
        result is aligned with the input order.
        """
        ids = self._as_index(set_ids)
        if ids.size == 0:
            return np.zeros(0, dtype=np.int64)
        remaining = np.bitwise_and(self._packed[ids], np.bitwise_not(covered_bits))
        return popcount_rows(remaining, 1)

    # ------------------------------------------------------------------ #
    # greedy
    # ------------------------------------------------------------------ #
    def greedy(
        self,
        *,
        max_sets: int | None = None,
        target_coverage: int | None = None,
        forbidden: Iterable[int] = (),
        lazy: bool = True,
    ) -> tuple[list[int], int, list[int], int]:
        """Greedy selection loop on the packed rows.

        Runs until ``max_sets`` sets are chosen, ``target_coverage`` elements
        are covered, or no remaining set has positive marginal gain —
        mirroring :func:`repro.offline.greedy._lazy_greedy` so the same
        vectorised path serves k-cover, set cover and partial cover, on full
        instances and sketches alike.

        Returns ``(selected, coverage, gains, evaluations)`` where ``gains``
        is the realised marginal gain per step and ``evaluations`` counts
        marginal-gain evaluations (a proxy for time).
        """
        if lazy:
            return self._greedy_lazy(max_sets, target_coverage, frozenset(forbidden))
        return self._greedy_eager(max_sets, target_coverage, frozenset(forbidden))

    def _limit(self, max_sets: int | None) -> int:
        return self._num_sets if max_sets is None else min(max_sets, self._num_sets)

    def _greedy_eager(
        self, max_sets: int | None, target_coverage: int | None, forbidden: frozenset[int]
    ) -> tuple[list[int], int, list[int], int]:
        covered = self.empty_bits()
        chosen: list[int] = []
        gains_log: list[int] = []
        covered_count = 0
        evaluations = 0
        available = np.ones(self._num_sets, dtype=bool)
        for set_id in forbidden:
            # Ids outside the snapshot are ignored, matching the graph-based
            # greedy (a forbidden id that cannot be selected anyway is a
            # no-op, not a mask of some other row).
            if 0 <= set_id < self._num_sets:
                available[set_id] = False
        limit = self._limit(max_sets)
        while len(chosen) < limit and (
            target_coverage is None or covered_count < target_coverage
        ):
            gains = self.marginal_gains(covered)
            evaluations += self._num_sets
            gains[~available] = -1
            best = int(np.argmax(gains))
            gain = int(gains[best])
            if gain <= 0:
                break
            chosen.append(best)
            gains_log.append(gain)
            available[best] = False
            covered = np.bitwise_or(covered, self._packed[best])
            covered_count += gain
        return chosen, covered_count, gains_log, evaluations

    def _greedy_lazy(
        self, max_sets: int | None, target_coverage: int | None, forbidden: frozenset[int]
    ) -> tuple[list[int], int, list[int], int]:
        covered = self.empty_bits()
        chosen: list[int] = []
        gains_log: list[int] = []
        covered_count = 0
        limit = self._limit(max_sets)

        # Max-heap of (-upper_bound, set_id, version): ``version`` is the
        # number of selections made when the bound was computed.  Set sizes
        # are the exact gains at version 0, so initialisation is free of any
        # per-row popcount — but counts as one evaluation per set to stay
        # comparable with the heap greedy's accounting.
        heap: list[tuple[int, int, int]] = [
            (-int(self._set_sizes[set_id]), set_id, 0)
            for set_id in range(self._num_sets)
            if set_id not in forbidden
        ]
        heapq.heapify(heap)
        evaluations = len(heap)

        while heap and len(chosen) < limit and (
            target_coverage is None or covered_count < target_coverage
        ):
            version = len(chosen)
            if heap[0][2] != version:
                # Refresh a small chunk of stale tops in one vectorised
                # subset-gain call; fresh entries caught in the chunk go
                # straight back unchanged.
                stale: list[int] = []
                while heap and len(stale) < _LAZY_CHUNK and heap[0][2] != version:
                    stale.append(heapq.heappop(heap)[1])
                fresh_gains = self.gains_for(
                    np.asarray(stale, dtype=np.intp), covered
                )
                evaluations += len(stale)
                for set_id, gain in zip(stale, fresh_gains.tolist()):
                    heapq.heappush(heap, (-gain, set_id, version))
                continue
            neg_gain, set_id, _ = heapq.heappop(heap)
            gain = -neg_gain
            if gain <= 0:
                break
            chosen.append(set_id)
            gains_log.append(gain)
            covered = np.bitwise_or(covered, self._packed[set_id])
            covered_count += gain
        return chosen, covered_count, gains_log, evaluations

    def greedy_k_cover(
        self, k: int, *, lazy: bool = True, forbidden: Iterable[int] = ()
    ) -> tuple[list[int], int]:
        """Vectorised greedy k-cover; returns (selection, coverage).

        ``lazy=True`` (default) uses the CELF max-heap of stale upper bounds;
        ``lazy=False`` recomputes all ``n`` marginal gains every step.  Both
        resolve ties to the smallest set id among the maximal-gain
        candidates — the same policy as
        :func:`repro.offline.greedy.greedy_k_cover` — so all the greedy
        paths produce identical selections (property-tested), and switching
        between the kernel and the set-based path, or laziness, never changes
        a reported result.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        selected, covered_count, _, _ = self.greedy(
            max_sets=k, target_coverage=None, forbidden=forbidden, lazy=lazy
        )
        return selected, covered_count

    def evaluate_many(
        self, families: Sequence[Iterable[int] | np.ndarray] | np.ndarray
    ) -> list[int]:
        """Coverage of several families (convenience for sweeps).

        A 2-D integer array evaluates directly as one stacked OR-reduction
        over a ``(families, sets, lanes)`` gather — no per-family Python
        objects at all.  Sequences of equal-length non-empty families take
        the same stacked path; ragged inputs fall back to per-family
        evaluation.
        """
        if isinstance(families, np.ndarray) and families.ndim == 2:
            if families.shape[0] == 0 or families.shape[1] == 0:
                return [0] * families.shape[0]
            gathered = self._packed[families.astype(np.intp, copy=False)]
            unions = np.bitwise_or.reduce(gathered, axis=1)
            return popcount_rows(unions, 1).tolist()
        rows = [self._as_index(family) for family in families]
        lengths = {row.size for row in rows}
        if len(lengths) == 1 and lengths != {0}:
            gathered = self._packed[np.stack(rows)]
            unions = np.bitwise_or.reduce(gathered, axis=1)
            return popcount_rows(unions, 1).tolist()
        return [self.coverage(row) for row in rows]


class KernelCache:
    """Per-graph cache of the packed kernel.

    The packing step is the expensive part of answering a query against an
    already-built sketch, and the packed rows are immutable — so a sketch
    held by the serving layer keeps one :class:`BitsetCoverage` and every
    subsequent query (any ``k``, any forbidden set, ``"auto"`` or
    ``"words"``) reuses it.

    Mirrors :func:`kernel_for`: ``backend=None`` and empty graphs yield
    ``None`` (the set-based path / nothing to evaluate).  Concurrent lookups
    from the thread executor are safe — at worst two threads both pack the
    graph once and one assignment wins; both objects are read-only and
    bit-identical.
    """

    def __init__(self, graph: BipartiteGraph) -> None:
        self._graph = graph
        self._kernel: BitsetCoverage | None = None

    def get(self, backend: str | None) -> "BitsetCoverage | None":
        """The cached kernel, packing on first use."""
        check_coverage_backend(backend)
        if backend is None or self._graph.num_edges == 0:
            return None
        if self._kernel is None:
            self._kernel = BitsetCoverage(self._graph)
        return self._kernel
