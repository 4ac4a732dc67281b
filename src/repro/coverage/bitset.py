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

The kernel holds no selection logic.  The one lazy greedy in
:mod:`repro.offline.greedy` runs on it when given ``kernel=``: it reads the
:attr:`~BitsetCoverage.set_sizes`, refreshes a chunk of stale candidates per
:meth:`~BitsetCoverage.gains_for` call and ORs each chosen :meth:`~BitsetCoverage.row`
into a covered row of its own.  A kernel is read-only after packing, so one
cached kernel can serve concurrent queries; it selects exactly what the
set-based greedy selects (property-tested), substantially faster on dense
instances (``benchmarks/bench_offline_throughput.py`` quantifies the
difference).
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Sequence

import numpy as np

from repro import obs
from repro.coverage.bipartite import BipartiteGraph, check_parallel_columns, check_set_column
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

#: Valid non-``None`` ``coverage_backend`` values; ``None`` keeps the
#: set-based path.
COVERAGE_BACKENDS = (LAYOUT,)

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


class BitsetCoverage:
    """Packed-bitset evaluator of the coverage function of a fixed graph.

    Parameters
    ----------
    graph:
        The bipartite membership graph; it is snapshotted at construction
        (later mutations of the graph are not reflected).
    """

    def __init__(self, graph: BipartiteGraph) -> None:
        self._pack(graph.num_sets, *graph.to_columns())

    @classmethod
    def from_columns(
        cls, num_sets: int, set_ids: np.ndarray, elements: np.ndarray
    ) -> "BitsetCoverage":
        """The evaluator of the graph of ``(set_id, element)`` columns.

        Equal to ``BitsetCoverage(BipartiteGraph.from_columns(num_sets,
        set_ids, elements))`` without building the graph; duplicate rows
        count once.
        """
        kernel = cls.__new__(cls)
        kernel._pack(num_sets, set_ids, elements)
        return kernel

    def _pack(self, num_sets: int, set_ids: np.ndarray, elements: np.ndarray) -> None:
        """The one packing routine: bit ``r`` of row ``s`` is set when set
        ``s`` holds the element of rank ``r`` among the distinct elements."""
        set_ids, elements = check_parallel_columns(set_ids, elements)
        check_set_column(set_ids, num_sets)
        distinct, ranks = np.unique(elements, return_inverse=True)
        dense = np.zeros((num_sets, max(1, len(distinct))), dtype=bool)
        dense[set_ids.astype(np.intp), ranks] = True
        self._num_sets = num_sets
        self._num_elements = len(distinct)
        # Rows are packed along the element axis: shape (n, words), uint64.
        # Both arrays are read-only: one kernel serves concurrent queries.
        self._packed = pack_rows(dense)
        self._set_sizes = _popcount_words(self._packed, 1)
        self._packed.flags.writeable = False
        self._set_sizes.flags.writeable = False

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

    @property
    def set_sizes(self) -> np.ndarray:
        """``|S|`` of every set, as a read-only ``int64`` array."""
        return self._set_sizes

    def row(self, set_id: int) -> np.ndarray:
        """The read-only packed bit-row of one set."""
        return self._packed[set_id]

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

        One call evaluates all ``n`` candidates.  ``covered_bits`` must be a
        packed row from this evaluator (:meth:`union_bits` /
        :meth:`empty_bits`).
        """
        remaining = np.bitwise_and(self._packed, np.bitwise_not(covered_bits))
        return popcount_rows(remaining, 1)

    def gains_for(
        self, set_ids: Iterable[int] | np.ndarray, covered_bits: np.ndarray
    ) -> np.ndarray:
        """Marginal gains of an index subset of sets (the lazy greedy's refresh).

        Re-evaluates only the ``set_ids`` rows instead of all ``n``; the
        result is aligned with the input order.
        """
        ids = self._as_index(set_ids)
        if ids.size == 0:
            return np.zeros(0, dtype=np.int64)
        remaining = np.bitwise_and(self._packed[ids], np.bitwise_not(covered_bits))
        return popcount_rows(remaining, 1)

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
    subsequent query (any ``k``, any forbidden set) reuses it.

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
