"""Streaming construction of ``H_{<=n}`` over an edge-arrival stream.

This is Algorithm 2 of the paper.  The offline construction (Algorithm 1)
admits elements in increasing hash order until the edge budget is hit; in the
stream, edges arrive in arbitrary order, so the builder instead:

1. hashes each arriving element to a rank in ``[0, 1)``;
2. keeps edges only for elements whose rank is below the current *admission
   threshold* (initially 1.0);
3. caps the per-element degree at ``degree_cap``;
4. whenever the number of stored edges exceeds
   ``edge_budget + eviction_slack`` (the paper allows the slack of one
   element's degree cap), evicts the tracked element with the **largest**
   rank and lowers the admission threshold to that rank — so the evicted
   element, and any element hashed above it, can never re-enter.

The final content is exactly the offline sketch up to the boundary element:
elements whose rank is below the final threshold keep all their (capped)
edges, elements above it keep none.  Rule 4 guarantees monotonicity (an
element is never re-admitted after losing edges), which is what makes the
streaming sketch equivalent to the offline one; the unit tests verify this
equivalence on random inputs.

Two rank sources are supported, mirroring the paper's discussion of
randomness:

* ``"hash"`` (default): ranks come from a :class:`UniformHash`, requiring no
  knowledge of the ground set.
* ``"permutation"``: the ground set size ``m`` is known; Algorithm 2's
  explicit trick of pre-sampling ``edge_budget + degree_cap`` elements and
  ranking them by a random permutation is used, and *unsampled* elements are
  discarded outright.  This variant uses only ``O~(|H_{<=n}|)`` random bits,
  as the paper notes.
"""

from __future__ import annotations

import heapq
from itertools import chain, compress
from typing import Iterable

import numpy as np

from repro.coverage.bipartite import BipartiteGraph, first_occurrences, run_starts
from repro.core.hashing import HashFamily, UniformHash
from repro.core.params import SketchParams
from repro.core.sketch import CoverageSketch
from repro.core.sketch_columns import SketchColumns
from repro.streaming.batches import EventBatch
from repro.streaming.events import EdgeArrival
from repro.streaming.space import SpaceMeter
from repro.utils.rng import spawn_rng

__all__ = ["StreamingSketchBuilder"]


class StreamingSketchBuilder:
    """Incrementally builds a :class:`CoverageSketch` from edge arrivals.

    Parameters
    ----------
    params:
        The sketch budgets (edge budget, degree cap, eviction slack).
    hash_fn:
        Rank source for the ``"hash"`` mode; defaults to
        :class:`UniformHash` seeded with ``seed``.
    seed:
        Seed for the default hash function / the permutation sampling.
    rank_source:
        ``"hash"`` or ``"permutation"`` (see module docstring).
    space:
        Optional external :class:`SpaceMeter` to charge; a fresh one is
        created otherwise.  One unit is charged per stored edge.
    """

    def __init__(
        self,
        params: SketchParams,
        *,
        hash_fn: HashFamily | None = None,
        seed: int = 0,
        rank_source: str = "hash",
        space: SpaceMeter | None = None,
    ) -> None:
        if rank_source not in ("hash", "permutation"):
            raise ValueError("rank_source must be 'hash' or 'permutation'")
        self.params = params
        self.hash_fn = hash_fn or UniformHash(seed)
        self.rank_source = rank_source
        self.seed = seed
        self.space = space if space is not None else SpaceMeter(unit="edges")
        self._graph = BipartiteGraph(params.num_sets)
        # Rows stored by _admit_bulk but not yet inserted into _graph, as
        # (set_ids, elements, element_ids) columns.  _flush inserts them in
        # one add_columns call before anything reads the adjacency, so a
        # sketch that is never read never builds its graph.
        self._pending: list[tuple[np.ndarray, np.ndarray, list[int]]] = []
        self._pending_edges = 0
        self._ranks: dict[int, float] = {}
        # Max-heap over (negated rank, element) of currently tracked elements,
        # built by one heapify of _ranks at the first eviction, so a sketch
        # that never evicts never holds it.  The keys are unique, so the pop
        # order is the same as pushing on every admission.
        self._heap: list[tuple[float, int]] | None = None
        self._truncated: set[int] = set()
        self._admission_threshold = 1.0
        self._edges_seen = 0
        self._edges_discarded = 0
        self._evictions = 0
        self._permutation_ranks: tuple[np.ndarray, np.ndarray] | None = None
        self._permutation_rank_of: dict[int, float] | None = None
        if rank_source == "permutation":
            self._permutation_ranks = self._sample_permutation()
            sampled, ranks = self._permutation_ranks
            # Dict twin of the sorted arrays for the scalar per-edge path
            # (a dict probe is ~10x cheaper than a searchsorted call); both
            # structures are O(|Π|).
            self._permutation_rank_of = {
                int(element): float(rank) for element, rank in zip(sampled, ranks)
            }

    # ------------------------------------------------------------------ #
    # rank handling
    # ------------------------------------------------------------------ #
    def _sample_permutation(self) -> tuple[np.ndarray, np.ndarray]:
        """Pre-sample Algorithm 2's element set Π and rank it by position.

        Π has ``edge_budget + degree_cap`` elements drawn uniformly without
        replacement from the ground set ``0 .. m-1``; the rank of a sampled
        element is its (normalised) position in a random permutation of Π.
        The result is ``(elements, ranks)``: the sampled element ids sorted
        ascending plus their aligned ranks — ``O(|Π|)`` space, preserving
        the sketch's sublinear-space story — so both the scalar and the
        batched path rank by binary search (``np.searchsorted``) instead of
        dict lookups; unsampled elements rank ``inf`` and are always
        discarded.
        """
        rng = spawn_rng(self.seed, "algorithm2-permutation")
        population = self.params.num_elements
        size = min(self.params.sample_size, population)
        sample = rng.choice(population, size=size, replace=False)
        permutation = rng.permutation(size)
        ranks = (permutation.astype(np.float64) + 1.0) / (max(1, population) + 1)
        order = np.argsort(sample)
        return sample[order].astype(np.uint64), ranks[order]

    def _rank(self, element: int) -> float:
        if self._permutation_rank_of is not None:
            return self._permutation_rank_of.get(element, float("inf"))
        return self.hash_fn.value(element)

    def _rank_batch(self, elements: np.ndarray) -> np.ndarray | None:
        """Vectorised ranks of a whole element column (None if unavailable).

        Bit-identical to calling :meth:`_rank` per element: the sorted
        permutation sample is probed with one ``searchsorted`` gather, and
        the hash path defers to the hash family's ``value_many`` when it
        exposes one.
        """
        if self._permutation_ranks is not None:
            sampled, sample_ranks = self._permutation_ranks
            out = np.full(len(elements), np.inf, dtype=np.float64)
            if len(sampled):
                index = np.searchsorted(sampled, elements)
                index_clipped = np.minimum(index, len(sampled) - 1)
                hit = (index < len(sampled)) & (sampled[index_clipped] == elements)
                out[hit] = sample_ranks[index_clipped[hit]]
            return out
        value_many = getattr(self.hash_fn, "value_many", None)
        if value_many is None:
            return None
        return value_many(elements)

    # ------------------------------------------------------------------ #
    # stream interface
    # ------------------------------------------------------------------ #
    @property
    def stored_edges(self) -> int:
        """Number of edges currently stored."""
        return self._graph.num_edges + self._pending_edges

    @property
    def evictions(self) -> int:
        """Number of element evictions performed so far."""
        return self._evictions

    @property
    def edges_seen(self) -> int:
        """Number of stream edges observed so far."""
        return self._edges_seen

    @property
    def edges_discarded(self) -> int:
        """Number of stream edges discarded on arrival."""
        return self._edges_discarded

    @property
    def admission_threshold(self) -> float:
        """Current rank threshold below which new elements are admitted."""
        return self._admission_threshold

    def add_edge(self, set_id: int, element: int) -> bool:
        """Process one membership edge; returns whether it was stored."""
        self._edges_seen += 1
        return self._admit(set_id, element, self._rank(element))

    def _admit(self, set_id: int, element: int, rank: float) -> bool:
        """Admission decision for one edge whose rank is already computed."""
        if rank >= self._admission_threshold:
            self._edges_discarded += 1
            return False
        self._flush()
        tracked = element in self._ranks
        if tracked:
            if self._graph.element_degree(element) >= self.params.degree_cap:
                self._truncated.add(element)
                self._edges_discarded += 1
                return False
            if not self._graph.add_edge(set_id, element):
                self._edges_discarded += 1
                return False
            self.space.charge(1)
        else:
            self._ranks[element] = rank
            if self._heap is not None:
                heapq.heappush(self._heap, (-rank, element))
            self._graph.add_edge(set_id, element)
            self.space.charge(1)
        self._evict_if_needed()
        return True

    def fits_in_bulk(self, edges: int) -> bool:
        """Whether ``edges`` more stored edges can never trigger an eviction.

        True when the stored edges plus ``edges`` stay within
        ``edge_budget + eviction_slack`` and the space meter enforces no
        budget.  Then the admission threshold stays fixed and no charge can
        trip the meter, so a batch of that many survivors is admitted in
        bulk by :meth:`process_batch`.
        """
        return (
            self.space.budget is None
            and self.stored_edges + edges <= self.params.max_stored_edges
        )

    def process(self, event: EdgeArrival) -> bool:
        """Process an :class:`EdgeArrival` event (same as :meth:`add_edge`)."""
        return self.add_edge(event.set_id, event.element)

    def process_batch(self, batch: EventBatch) -> int:
        """Process a whole columnar edge batch; returns the edges stored.

        The batch's elements are ranked in one vectorised call — a dense
        table gather for ``rank_source="permutation"``, the hash family's
        ``value_many`` otherwise — and edges whose rank already clears the
        current admission threshold are rejected wholesale; since the
        threshold only ever decreases, the scalar path would reject every
        one of them too.  When the survivors fit (:meth:`fits_in_bulk`) they
        are admitted in bulk by array work; otherwise they go through the
        ordinary per-edge admission (threshold re-check, degree cap, dedup,
        eviction).  Either way the builder state after a batch is
        byte-identical to feeding the same edges one at a time.
        """
        if batch.offsets is not None:
            raise TypeError("StreamingSketchBuilder consumes edge batches, got a set batch")
        count = len(batch)
        if count == 0:
            return 0
        ranks = self._rank_batch(batch.elements)
        if ranks is None:
            stored = 0
            for event in batch.iter_events():
                if self.process(event):
                    stored += 1
            return stored
        survivors = np.flatnonzero(ranks < self._admission_threshold)
        self._edges_seen += count
        self._edges_discarded += count - len(survivors)
        if not len(survivors):
            return 0
        set_ids, elements = batch.set_ids, batch.elements
        if len(survivors) < count:
            set_ids, elements, ranks = set_ids[survivors], elements[survivors], ranks[survivors]
        # An out-of-range set id takes the per-edge path, which raises at
        # exactly the row the scalar stream would.
        if self.fits_in_bulk(len(survivors)) and set_ids.max() < self.params.num_sets:
            element_ids = _pick(batch.element_ids, survivors)
            stored = self._admit_bulk(set_ids, elements, ranks, element_ids)
            self._edges_discarded += len(survivors) - stored
            return stored
        stored = 0
        for set_id, element, rank in zip(set_ids.tolist(), elements.tolist(), ranks.tolist()):
            if self._admit(set_id, element, rank):
                stored += 1
        return stored

    def _admit_bulk(
        self,
        set_ids: np.ndarray,
        elements: np.ndarray,
        ranks: np.ndarray,
        element_ids: list[int],
    ) -> int:
        """Admit below-threshold rows that fit the edge limit; return #stored.

        No eviction can happen inside such a batch, so the threshold stays
        fixed and each row's fate depends only on the rows before it.  A
        row is stored when its ``(set, element)`` pair is new (not stored
        yet, not an earlier row) and its element's degree is below the cap;
        any arrival at the cap marks the element truncated.  The element's
        degree before a row is its stored degree plus the new pairs among
        its earlier rows, so the cap is a cumulative count per element.
        ``element_ids`` holds the rows' elements as the batch's shared ints.
        The stored rows join the pending list; :meth:`_flush` inserts them.
        """
        cap = self.params.degree_cap
        # Rows grouped by element, each group in row order.
        order = np.argsort(elements, kind="stable")
        grouped = elements[order]
        boundary = run_starts(grouped)
        starts = boundary.nonzero()[0]
        sorted_group = np.cumsum(boundary) - 1
        group = np.empty_like(sorted_group)
        group[order] = sorted_group
        keys = grouped[starts].tolist()
        known = np.fromiter(map(self._ranks.__contains__, keys), dtype=bool, count=len(keys))
        new = first_occurrences(set_ids, elements)
        degree = np.zeros(len(keys), dtype=np.int64)
        if known.any():
            # Only an already tracked element can have stored pairs.
            self._flush()
            rows = np.flatnonzero(known[group])
            new[rows] &= ~self._graph.has_edges(set_ids[rows], elements[rows])
            degree[known] = np.fromiter(
                map(self._graph.element_degree, compress(keys, known.tolist())),
                dtype=np.int64,
                count=int(known.sum()),
            )
        # Degree before each row: stored degree plus new pairs on earlier
        # rows of the same element (exclusive running count per group).
        new_sorted = new[order].astype(np.int64)
        running = np.cumsum(new_sorted) - new_sorted
        before = np.empty(len(order), dtype=np.int64)
        before[order] = running - running[starts][sorted_group]
        level = degree[group] + before
        stored = new & (level < cap)
        self._truncated.update(_pick(element_ids, np.flatnonzero(level >= cap)))
        # New elements enter _ranks in order of their first row.
        fresh = np.sort(order[starts][~known])
        fresh_elements = _pick(element_ids, fresh)
        fresh_ranks = ranks[fresh].tolist()
        self._ranks.update(zip(fresh_elements, fresh_ranks))
        if self._heap is not None:
            for rank, element in zip(fresh_ranks, fresh_elements):
                heapq.heappush(self._heap, (-rank, element))
        rows = np.flatnonzero(stored)
        if len(rows):
            self._pending.append((set_ids[rows], elements[rows], _pick(element_ids, rows)))
            self._pending_edges += len(rows)
        self.space.charge(len(rows))
        return len(rows)

    def _flush(self) -> None:
        """Insert the rows pending from bulk admissions into the graph.

        One :meth:`BipartiteGraph.add_columns` call over their concatenation
        equals the per-batch calls it replaces, down to iteration order.
        """
        if not self._pending:
            return
        set_ids, elements, element_ids = zip(*self._pending)
        self._pending = []
        self._pending_edges = 0
        self._graph.add_columns(
            np.concatenate(set_ids), np.concatenate(elements), list(chain(*element_ids))
        )

    def consume(self, events: Iterable[EdgeArrival | tuple[int, int]]) -> None:
        """Feed a whole iterable of edges / events through the builder."""
        for event in events:
            if isinstance(event, EdgeArrival):
                self.add_edge(event.set_id, event.element)
            else:
                set_id, element = event
                self.add_edge(set_id, element)

    def _evict_if_needed(self) -> None:
        """Evict highest-ranked elements while over the transient edge limit.

        Runs only after :meth:`_admit`, which has flushed the pending rows.
        """
        limit = self.params.max_stored_edges
        while self._graph.num_edges > limit and len(self._ranks) > 1:
            if self._heap is None:
                self._heap = [(-rank, element) for element, rank in self._ranks.items()]
                heapq.heapify(self._heap)
            # The heap holds exactly the tracked elements: each admission
            # pushes, each eviction pops, and nothing else leaves _ranks.
            neg_rank, element = heapq.heappop(self._heap)
            rank = -neg_rank
            del self._ranks[element]
            removed = self._graph.remove_element(element)
            self.space.release(removed)
            self._truncated.discard(element)
            self._admission_threshold = min(self._admission_threshold, rank)
            self._evictions += 1

    # ------------------------------------------------------------------ #
    # result
    # ------------------------------------------------------------------ #
    def sketch(self) -> CoverageSketch:
        """Finalize and return the sketch built so far.

        The threshold ``p*`` is the largest rank among retained elements when
        any eviction (or admission rejection) occurred, and 1.0 when the
        whole stream fit in the budget — mirroring the offline convention.
        """
        self._flush()
        saw_rejection = self._evictions > 0 or self._admission_threshold < 1.0
        if self._ranks and saw_rejection:
            threshold = max(self._ranks.values())
        elif self._ranks:
            threshold = 1.0
        else:
            threshold = self._admission_threshold
        return CoverageSketch(
            graph=self._graph.copy(),
            params=self.params,
            threshold=threshold,
            element_hashes=dict(self._ranks),
            truncated_elements=frozenset(self._truncated),
        )

    def columns(self) -> SketchColumns:
        """The sketch built so far as rank-sorted columns, with no graph copy.

        Holds what :meth:`sketch` holds — rows, ranks, threshold ``p*`` and
        truncation flags, so ``columns().to_sketch(params)`` equals
        ``sketch()`` — as flat numpy columns: the form a distributed map job
        ships home (no Python sets to pickle).
        """
        self._flush()
        set_ids, elements = self._graph.to_columns()
        tracked = np.fromiter(self._ranks, dtype=np.uint64, count=len(self._ranks))
        by_id = np.argsort(tracked)
        tracked_ranks = np.fromiter(
            self._ranks.values(), dtype=np.float64, count=len(self._ranks)
        )[by_id]
        ranks = tracked_ranks[np.searchsorted(tracked[by_id], elements)]
        # p*, by the rule of sketch(): the largest retained rank once
        # anything was rejected, 1.0 when the whole stream fit.
        saw_rejection = self._evictions > 0 or self._admission_threshold < 1.0
        if len(tracked_ranks) and saw_rejection:
            threshold = float(tracked_ranks.max())
        elif len(tracked_ranks):
            threshold = 1.0
        else:
            threshold = self._admission_threshold
        truncated = np.fromiter(self._truncated, dtype=np.uint64, count=len(self._truncated))
        return SketchColumns.from_rows(ranks, elements, set_ids, threshold, truncated)

    def describe(self) -> dict[str, float | int | str]:
        """Diagnostics for logging and tests."""
        return {
            "rank_source": self.rank_source,
            "stored_edges": self.stored_edges,
            "tracked_elements": len(self._ranks),
            "edges_seen": self._edges_seen,
            "edges_discarded": self._edges_discarded,
            "evictions": self._evictions,
            "admission_threshold": self._admission_threshold,
            "space_peak": self.space.peak,
        }


def _pick(values: list[int], rows: np.ndarray) -> list[int]:
    """``values`` at ascending distinct ``rows``, sharing the int objects."""
    if len(rows) == len(values):
        return values
    return list(map(values.__getitem__, rows.tolist()))
