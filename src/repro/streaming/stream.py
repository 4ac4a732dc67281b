"""Replayable edge-arrival and set-arrival streams.

A stream stores its whole input as one columnar
:class:`~repro.streaming.batches.EventBatch` — the edge layout for
:class:`EdgeStream`, the CSR set layout for :class:`SetStream` — and replays
it in a chosen order.  Each pass reorders the stored batch once with
:meth:`~repro.streaming.batches.EventBatch.take`; ``iter_batches`` cuts that
reordered batch into chunks and ``__iter__`` unrolls it into scalar events,
so both views of a pass are event-for-event identical.  Iterating again
yields a fresh pass, which is what the multi-pass algorithms (Algorithm 6,
Demaine- and Har-Peled-style baselines) need; the number of passes taken is
tracked so experiments can report it.

Orders
------
``"given"``
    Events in the order the edges were provided (deterministic).
``"random"``
    A fresh uniformly random permutation per pass (seeded).
``"set_grouped"``
    All edges of set 0, then set 1, ... — the edge-arrival encoding of the
    set-arrival model.
``"element_grouped"``
    All edges of one element together — an adversarial order for algorithms
    that implicitly assume sets arrive intact.
``"adversarial_tail"``
    The edges of the planted / largest sets are held back to the very end of
    the stream, stressing algorithms that commit to early sets.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.coverage.bipartite import BipartiteGraph
from repro.errors import InvalidInstanceError, SpecError
from repro.streaming.batches import EventBatch, check_batch_size, id_column
from repro.streaming.events import EdgeArrival, SetArrival
from repro.utils.rng import spawn_rng

__all__ = ["EdgeStream", "SetStream", "STREAM_ORDERS"]

STREAM_ORDERS = (
    "given",
    "random",
    "set_grouped",
    "element_grouped",
    "adversarial_tail",
)


class _ReplayableStream:
    """One stored :class:`EventBatch`, an arrival order and a pass counter."""

    def __init__(self, batch: EventBatch, order: str, seed: int) -> None:
        self._batch = batch
        self._order = order
        self._seed = int(seed)
        self._passes = 0

    @property
    def num_events(self) -> int:
        """Length of one pass of the stream (edges, or set arrivals)."""
        return len(self._batch)

    @property
    def passes_taken(self) -> int:
        """How many passes have been fully or partially consumed so far."""
        return self._passes

    def reset_pass_count(self) -> None:
        """Reset the pass counter (e.g. between benchmark repetitions)."""
        self._passes = 0

    def _pass(self) -> EventBatch:
        """The stored batch in the next pass's order (counts as a pass).

        Subclasses define ``_ordered_indices(pass_index)``, the row
        permutation of every order but ``given``.
        """
        pass_index = self._passes
        self._passes += 1
        if self._order == "given":
            return self._batch
        return self._batch.take(self._ordered_indices(pass_index))

    def __iter__(self) -> Iterator[EdgeArrival | SetArrival]:
        yield from self._pass().iter_events()

    def iter_batches(self, batch_size: int) -> Iterator[EventBatch]:
        """Yield one pass as columnar batches of at most ``batch_size`` events.

        Counts as one pass (like ``__iter__``) and visits the events in
        exactly the same order as ``__iter__`` for the same pass index.
        """
        check_batch_size(batch_size)
        yield from self._pass().chunks(batch_size)


class EdgeStream(_ReplayableStream):
    """A replayable stream of :class:`EdgeArrival` events.

    The edges are stored as one edge-layout :class:`EventBatch`.

    Parameters
    ----------
    edges:
        The membership edges as (set_id, element) pairs.
    columns:
        Instead of ``edges``: parallel ``(set_ids, elements)`` integer
        columns, stored as they are when already ``uint64`` (no copy, no
        scan — e.g. memory-mapped off disk).
    num_sets:
        Number of set vertices ``n`` (known to the algorithm up front, as the
        paper assumes — space bounds are stated in terms of ``n``).
    num_elements_hint:
        Optional upper bound on the number of distinct elements ``m``.  The
        paper's algorithms only need ``m`` up to a constant factor (it enters
        through ``log m``); generators provide the exact value.  Defaults to
        the distinct element count, computed on first access.
    order:
        One of :data:`STREAM_ORDERS`.
    seed:
        Seed for the random orders; each pass re-shuffles deterministically
        from (seed, pass index).
    favored_sets:
        For ``adversarial_tail``: the set ids whose edges are moved to the
        end of the stream (defaults to the largest set, ties to the
        smallest id).
    """

    def __init__(
        self,
        edges: Iterable[tuple[int, int]] | None = None,
        *,
        columns: tuple[np.ndarray, np.ndarray] | None = None,
        num_sets: int,
        num_elements_hint: int | None = None,
        order: str = "given",
        seed: int = 0,
        favored_sets: Sequence[int] | None = None,
    ) -> None:
        if order not in STREAM_ORDERS:
            raise SpecError(f"unknown order {order!r}; expected one of {STREAM_ORDERS}")
        if (edges is None) == (columns is None):
            raise SpecError("provide exactly one of edges= or columns=")
        num_sets = operator.index(num_sets)
        if num_sets < 0:
            raise InvalidInstanceError(f"num_sets must be >= 0, got {num_sets}")
        if edges is not None:
            batch = EventBatch.from_edges(edges)
        else:
            set_column, element_column = columns
            batch = EventBatch(set_column, element_column)
        super().__init__(batch, order, seed)
        self._num_sets = num_sets
        self._num_elements_hint = (
            int(num_elements_hint) if num_elements_hint is not None else None
        )
        self._favored_sets = (
            id_column(favored_sets, "favored set ids") if favored_sets is not None else None
        )

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_graph(
        cls,
        graph: BipartiteGraph,
        *,
        order: str = "random",
        seed: int = 0,
        favored_sets: Sequence[int] | None = None,
    ) -> "EdgeStream":
        """Build a stream from a bipartite graph, stored in ``graph.edges()`` order."""
        return cls(
            columns=graph.to_set_columns(),
            num_sets=graph.num_sets,
            num_elements_hint=graph.num_elements,
            order=order,
            seed=seed,
            favored_sets=favored_sets,
        )

    @classmethod
    def from_columnar(
        cls,
        source,
        *,
        order: str = "given",
        seed: int = 0,
        favored_sets: Sequence[int] | None = None,
    ) -> "EdgeStream":
        """Build a stream directly over memory-mapped columnar storage.

        ``source`` is a :class:`repro.coverage.io.ColumnarEdges` (or a path
        to a directory written by :func:`repro.coverage.io.write_columnar`).
        The stream stores the mapped ``uint64`` columns unchanged — no copy
        and no scan — so ``given``-order batches are views of disk pages and
        no per-edge Python objects are built on the batched path.
        """
        from repro.coverage.io import ColumnarEdges, open_columnar

        columns = source if isinstance(source, ColumnarEdges) else open_columnar(source)
        return cls(
            columns=(columns.set_ids, columns.elements),
            num_sets=max(1, columns.num_sets),
            num_elements_hint=columns.num_elements,
            order=order,
            seed=seed,
            favored_sets=favored_sets,
        )

    # ------------------------------------------------------------------ #
    # stream metadata
    # ------------------------------------------------------------------ #
    @property
    def num_sets(self) -> int:
        """The number of set vertices ``n`` (known up front)."""
        return self._num_sets

    @property
    def num_elements_hint(self) -> int:
        """Upper bound on the number of distinct elements ``m``."""
        if self._num_elements_hint is None:
            self._num_elements_hint = len(np.unique(self._batch.elements))
        return self._num_elements_hint

    @property
    def order(self) -> str:
        """The configured arrival order."""
        return self._order

    # ------------------------------------------------------------------ #
    # iteration
    # ------------------------------------------------------------------ #
    def _ordered_indices(self, pass_index: int) -> np.ndarray:
        """Edge permutation realising the configured order for one pass.

        The sort-based orders use stable ``np.lexsort``, so edges with equal
        keys keep their stored order.
        """
        sets, elements = self._batch.set_ids, self._batch.elements
        if self._order == "random":
            rng = spawn_rng(self._seed, f"edge-stream-pass-{pass_index}")
            return rng.permutation(len(sets))
        if self._order == "set_grouped":
            return np.lexsort((elements, sets))
        if self._order == "element_grouped":
            return np.lexsort((sets, elements))
        if self._order == "adversarial_tail":
            mask = np.isin(sets, self._favored_tail())
            head = np.flatnonzero(~mask)
            tail = np.flatnonzero(mask)
            rng = spawn_rng(self._seed, f"edge-stream-adv-{pass_index}")
            head_order = rng.permutation(len(head))
            return np.concatenate([head[head_order], tail])
        raise AssertionError(f"unhandled order {self._order}")  # pragma: no cover

    def _favored_tail(self) -> np.ndarray:
        """The set ids held back by ``adversarial_tail``."""
        if self._favored_sets is not None:
            return self._favored_sets
        ids, counts = np.unique(self._batch.set_ids, return_counts=True)
        # ids ascend and argmax returns the first maximum, so the largest
        # set wins and ties go to the smallest id.
        return ids[np.argmax(counts)][None] if len(ids) else ids

    def to_graph(self) -> BipartiteGraph:
        """Materialise the full underlying graph (for offline reference runs)."""
        return BipartiteGraph.from_columns(
            self._num_sets, self._batch.set_ids, self._batch.elements
        )


class SetStream(_ReplayableStream):
    """A replayable stream of :class:`SetArrival` events (set-arrival model).

    Used by the prior-work baselines (Saha–Getoor, sieve-streaming, ...),
    which assume each set arrives intact with its member list.  The sets are
    stored as one CSR set-layout :class:`EventBatch`; ``sets`` is a list
    (position = set id), a dict of set id → members (stored in ascending id
    order), or such a batch itself.  :attr:`num_sets` is the largest stored
    set id plus one.
    """

    def __init__(
        self,
        sets: Sequence[Sequence[int]] | dict[int, Sequence[int]] | EventBatch,
        *,
        order: str = "given",
        seed: int = 0,
    ) -> None:
        if order not in ("given", "random"):
            raise SpecError("SetStream supports orders 'given' and 'random'")
        if isinstance(sets, EventBatch):
            if sets.kind != "set":
                raise SpecError("SetStream stores a set-layout batch, got an edge batch")
            batch = sets
        elif isinstance(sets, dict):
            batch = EventBatch.from_sets(sorted(sets.items()))
        else:
            batch = EventBatch.from_sets(enumerate(sets))
        super().__init__(batch, order, seed)
        self._num_sets = int(batch.set_ids.max()) + 1 if len(batch) else 0

    @classmethod
    def from_graph(
        cls, graph: BipartiteGraph, *, order: str = "random", seed: int = 0
    ) -> "SetStream":
        """Build a set-arrival stream from a bipartite graph.

        Every set id arrives, in ascending order, with its members sorted.
        """
        set_ids, elements = graph.to_set_columns()
        members = elements[np.lexsort((elements, set_ids))]
        bounds = np.arange(graph.num_sets + 1, dtype=np.uint64)
        offsets = np.searchsorted(set_ids, bounds)
        return cls(EventBatch(bounds[:-1], members, offsets), order=order, seed=seed)

    @classmethod
    def from_columnar(
        cls, source, *, order: str = "given", seed: int = 0
    ) -> "SetStream":
        """Build a stream directly over memory-mapped CSR set storage.

        ``source`` is a :class:`repro.coverage.io.ColumnarSets` (or a path
        to a directory written by
        :func:`repro.coverage.io.write_columnar_sets`).  The stream stores
        the mapped columns unchanged — mirroring
        :meth:`EdgeStream.from_columnar` — so ``given``-order set batches
        are views of disk pages.
        """
        from repro.coverage.io import ColumnarSets, open_columnar_sets

        columns = source if isinstance(source, ColumnarSets) else open_columnar_sets(source)
        return cls(
            EventBatch(columns.set_ids, columns.members, columns.offsets),
            order=order,
            seed=seed,
        )

    @property
    def num_sets(self) -> int:
        """Number of sets in the stream."""
        return self._num_sets

    def _ordered_indices(self, pass_index: int) -> np.ndarray:
        rng = spawn_rng(self._seed, f"set-stream-pass-{pass_index}")
        return rng.permutation(len(self._batch))

    def to_graph(self) -> BipartiteGraph:
        """Materialise the full underlying graph."""
        return self.to_edge_stream(order="given").to_graph()

    def to_edge_stream(self, *, order: str = "random", seed: int = 0) -> EdgeStream:
        """Convert to the edge-arrival model: each set's edges, consecutively."""
        batch = self._batch
        return EdgeStream(
            columns=(np.repeat(batch.set_ids, np.diff(batch.offsets)), batch.elements),
            num_sets=max(1, self._num_sets),
            order=order,
            seed=seed,
        )
