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

While streaming, the builder holds no graph.  It stores each tracked
element's rank and the ids of its stored sets (two dicts, both in order of
first admission), the elements that hit the degree cap, and, from the first
eviction on, a max-heap of the tracked ranks.  An eviction is one heap pop and
one pop from each dict.  Rows admitted in bulk wait as numpy columns until the
per-edge path or a reader needs them in the dicts.  The graph is built only by
:meth:`~StreamingSketchBuilder.sketch`;
:meth:`~StreamingSketchBuilder.columns` reads the dicts straight into
rank-sorted columns.

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
import operator
from itertools import chain, compress
from typing import Iterable, Sequence

import numpy as np

from repro.coverage.bipartite import (
    BipartiteGraph,
    check_set_id,
    extend_adjacency,
    first_occurrences,
    run_starts,
)
from repro.core.hashing import HashFamily, UniformHash
from repro.core.params import SketchParams
from repro.core.sketch import CoverageSketch
from repro.core.sketch_columns import SketchColumns
from repro.streaming.batches import EventBatch
from repro.streaming.events import EdgeArrival
from repro.streaming.space import SpaceMeter
from repro.utils.rng import spawn_rng
from repro.utils.validation import check_non_negative_int

__all__ = ["StreamingSketchBuilder"]


class StreamingSketchBuilder:
    """Incrementally builds a :class:`CoverageSketch` from edge arrivals.

    The stored edges live in an element → set ids map next to the element
    ranks, so admitting an edge is a set insert and evicting an element is a
    dict pop; the :class:`BipartiteGraph` of the sketch is built only by
    :meth:`sketch`.

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
        # Tracked element → its rank, and → the ids of its stored sets, both
        # in order of first admission.  An eviction pops the element from
        # both; _num_edges counts the stored edges.
        self._ranks: dict[int, float] = {}
        self._owners: dict[int, set[int]] = {}
        self._num_edges = 0
        # Rows stored by _admit_bulk but not yet in _owners, as (set_ids,
        # elements, element_ids) columns.  _flush moves them before anything
        # reads _owners, so a builder whose sketch is never read (most
        # Algorithm 5 guesses) never turns its bulk rows into Python sets.
        self._pending: list[tuple[np.ndarray, np.ndarray, list[int]]] = []
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
        ascending plus their aligned ranks, ``O(|Π|)`` space, preserving the
        sketch's sublinear-space story.  The batched path ranks a column by
        binary search in these arrays (``np.searchsorted``); the scalar path
        looks ranks up in their dict twin built by ``__init__``.  Unsampled
        elements rank ``inf`` and are always discarded.
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
        return self._num_edges

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
        """Process one membership edge; returns whether it was stored.

        An edge that would be stored is validated first, raising what
        :meth:`BipartiteGraph.add_edge` raises for a bad set id or element.
        """
        self._edges_seen += 1
        return self._admit_rows((set_id,), (element,), (self._rank(element),), checked=False) == 1

    def _admit_rows(
        self,
        set_ids: Sequence[int],
        elements: Sequence[int],
        ranks: Sequence[float],
        *,
        checked: bool,
    ) -> int:
        """Admit rows one at a time, in order; return how many were stored.

        Per row: the threshold check, the degree cap (an arrival at the cap
        marks the element truncated), the row's validation unless the
        caller ``checked`` it, the ``(set, element)`` dedup, then the add,
        its charge and any eviction it makes necessary.
        """
        if self._pending:
            self._flush()
        owners_of = self._owners
        cap = self.params.degree_cap
        limit = self.params.max_stored_edges
        charge = self.space.charge
        threshold = self._admission_threshold
        stored = 0
        for set_id, element, rank in zip(set_ids, elements, ranks):
            if rank >= threshold:
                self._edges_discarded += 1
                continue
            owners = owners_of.get(element)
            if owners is not None and len(owners) >= cap:
                self._truncated.add(element)
                self._edges_discarded += 1
                continue
            if not checked:
                check_set_id(set_id, self.params.num_sets)
                check_non_negative_int(element, "element")
            if owners is None:
                self._ranks[element] = rank
                owners_of[element] = {set_id}
                if self._heap is not None:
                    heapq.heappush(self._heap, (-rank, element))
            elif set_id in owners:
                self._edges_discarded += 1
                continue
            else:
                owners.add(set_id)
            self._num_edges += 1
            stored += 1
            charge(1)
            if self._num_edges > limit:
                self._evict(limit)
                threshold = self._admission_threshold
        return stored

    def _evict(self, limit: int) -> None:
        """Evict highest-ranked elements while more than ``limit`` edges are stored."""
        ranks = self._ranks
        while self._num_edges > limit and len(ranks) > 1:
            if self._heap is None:
                self._heap = [(-rank, element) for element, rank in ranks.items()]
                heapq.heapify(self._heap)
            # The heap holds exactly the tracked elements: each admission
            # pushes, each eviction pops, and nothing else leaves _ranks.
            neg_rank, element = heapq.heappop(self._heap)
            del ranks[element]
            removed = len(self._owners.pop(element))
            self._num_edges -= removed
            self.space.release(removed)
            self._truncated.discard(element)
            self._admission_threshold = min(self._admission_threshold, -neg_rank)
            self._evictions += 1

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
            and self._num_edges + edges <= self.params.max_stored_edges
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
        sequential admission of :meth:`add_edge` (threshold re-check, degree
        cap, dedup, eviction).  Either way the builder state after a batch
        is byte-identical to feeding the same edges one at a time.
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
        # A batch with an out-of-range set id is admitted row by row with
        # validation, so it raises at exactly the row the scalar stream would.
        checked = bool(set_ids.max() < self.params.num_sets)
        if checked and self.fits_in_bulk(len(survivors)):
            element_ids = _pick(batch.element_ids, survivors)
            stored = self._admit_bulk(set_ids, elements, ranks, element_ids)
            self._edges_discarded += len(survivors) - stored
            return stored
        return self._admit_rows(
            set_ids.tolist(), elements.tolist(), ranks.tolist(), checked=checked
        )

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
        The stored rows join the pending list; :meth:`_flush` moves them
        into the owners store.
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
            owners_of = self._owners
            rows = np.flatnonzero(known[group])
            owners = map(owners_of.__getitem__, _pick(element_ids, rows))
            new[rows] &= ~np.fromiter(
                map(operator.contains, owners, set_ids[rows].tolist()),
                dtype=bool,
                count=len(rows),
            )
            degree[known] = np.fromiter(
                map(len, map(owners_of.__getitem__, compress(keys, known.tolist()))),
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
            self._num_edges += len(rows)
        self.space.charge(len(rows))
        return len(rows)

    def _flush(self) -> None:
        """Move the rows pending from bulk admissions into the owners store.

        The element half of :meth:`BipartiteGraph.add_columns`
        (:func:`extend_adjacency`): new elements join ``_owners`` in order
        of their first row, which is the order they joined ``_ranks``.
        """
        if not self._pending:
            return
        set_ids, elements, element_ids = zip(*self._pending)
        self._pending = []
        extend_adjacency(
            self._owners,
            np.concatenate(elements),
            np.concatenate(set_ids),
            list(chain.from_iterable(element_ids)),
        )

    def consume(self, events: Iterable[EdgeArrival | tuple[int, int]]) -> None:
        """Feed a whole iterable of edges / events through the builder."""
        for event in events:
            if isinstance(event, EdgeArrival):
                self.add_edge(event.set_id, event.element)
            else:
                set_id, element = event
                self.add_edge(set_id, element)

    # ------------------------------------------------------------------ #
    # result
    # ------------------------------------------------------------------ #
    def _threshold(self) -> float:
        """``p*``: the largest retained rank once anything was rejected
        (evicted, or ranked above the lowered admission threshold), 1.0 when
        the whole stream fit — mirroring the offline convention."""
        if not self._ranks:
            return self._admission_threshold
        if self._evictions > 0 or self._admission_threshold < 1.0:
            return max(self._ranks.values())
        return 1.0

    def sketch(self) -> CoverageSketch:
        """The sketch built so far, with its graph built from the stored rows.

        The pending rows are flushed first, so each adjacency set of the
        graph is filled in the order the per-edge stream would fill it.
        """
        self._flush()
        return CoverageSketch(
            graph=BipartiteGraph.from_element_sets(self.params.num_sets, self._owners),
            params=self.params,
            threshold=self._threshold(),
            element_hashes=dict(self._ranks),
            truncated_elements=frozenset(self._truncated),
        )

    def columns(self) -> SketchColumns:
        """The sketch built so far as rank-sorted columns, with no graph built.

        Holds what :meth:`sketch` holds — rows, ranks, threshold ``p*`` and
        truncation flags, so ``columns().to_sketch(params)`` equals
        ``sketch()`` — as flat numpy columns: the form a distributed map job
        ships home (no Python sets to pickle).
        """
        self._flush()
        owners = self._owners
        count = len(owners)
        degrees = np.fromiter(map(len, owners.values()), dtype=np.intp, count=count)
        set_ids = np.fromiter(
            chain.from_iterable(owners.values()), dtype=np.uint64, count=self._num_edges
        )
        elements = np.repeat(np.fromiter(owners, dtype=np.uint64, count=count), degrees)
        # Once flushed, _owners and _ranks hold the same keys in the same order.
        ranks = np.repeat(np.fromiter(self._ranks.values(), dtype=np.float64, count=count), degrees)
        truncated = np.fromiter(self._truncated, dtype=np.uint64, count=len(self._truncated))
        return SketchColumns.from_rows(ranks, elements, set_ids, self._threshold(), truncated)

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

