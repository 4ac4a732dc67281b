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
equivalence on random inputs.  Equal ranks are evicted smallest element
first.

While streaming, the builder holds no graph.  The stored edges are four
parallel columns — rank, element, set id and an arrival stamp — sorted by
``(rank, element, set)``: each element's rows are contiguous, the next
eviction victims sit at the end, and :meth:`~StreamingSketchBuilder.columns`
returns the columns as they are.  The stamps record the order in which the
edges were admitted, which :meth:`~StreamingSketchBuilder.sketch` replays to
build its graph.

A batch is admitted by array work.  A row *contributes* an edge when its
``(set, element)`` pair is new (neither stored nor on an earlier row) and
its element's degree is below the cap; that depends only on the element's
own rows, so the whole batch is classified at once.  Rule 4 then has an
exact closed form.  Let the *prefix* of a rank ``ρ`` after row ``t`` be the
stored edges of the elements ranked at most ``ρ`` plus the contributions of
rows ``<= t`` ranked at most ``ρ``, and ``A_ρ`` the first row at which it
exceeds the limit.  After a row the eviction loop pops ranks from the top
until the edges fit, so it reaches rank ``ρ`` exactly when the prefix of
``ρ`` exceeds the limit; before ``A_ρ`` no element ranked at most ``ρ`` has
lost an edge, so the prefix is a plain count.  Hence:

* a row ranked ``ρ`` is admitted if and only if it comes at or before
  ``A_ρ``;
* the smallest rank ``ρ0`` with a finite ``A`` is the new threshold; every
  element ranked above it that stored an edge is evicted, and so are the
  smallest elements of rank ``ρ0`` until the edges fit;
* the evictions leave in ``(rank descending, element ascending)`` order, and
  the store keeps the rows below the cut.

So a row ranked ``ρ`` at or above the cut is admitted exactly when the
contributions before it ranked at most ``ρ`` number fewer than the limit
leaves rank ``ρ`` (``limit + 1`` minus the stored edges ranked at most
``ρ``); one merge-sort count gives that number for every row at once, in
``O(n log n)`` however many ranks the cut leaves above it.  A batch that
fits the limit skips all of this.

The classification has two parts.  A :class:`BatchGrouping` holds what
does not depend on the ranks: the batch's rows sorted by ``(element, set,
row)``, its distinct elements (the *keys*), which row is the first of its
``(set, element)`` pair, and how many first rows of its element come before
each row.  The builder's part ranks the keys only, sorts them by ``(rank,
element)``, gathers their row blocks into the store's order and probes the
store.  The threshold filter keeps or drops all the rows of an element
together, so the grouping of a whole batch, restricted to one builder's
kept keys, is exactly the grouping of that builder's survivors: builders
that differ only in their hash and budgets — an ensemble's replicas, and
Algorithm 5's builders once its guesses' degree caps differ — share one
grouping per batch.  A builder fed alone ranks every row, filters, and
groups only its survivors.

A batch of one row, which is what :meth:`~StreamingSketchBuilder.add_edge`
feeds, is added to the store as it is, and if the edges then exceed the
limit the store alone is cut: its top elements leave, in eviction order,
until the edges fit, but the last tracked element never does.  A batch of
several rows that the closed form cannot take whole goes through that same
path one row at a time: the rows from an out-of-range set id on (to raise
at the row the per-edge stream would), and every row when the degree cap is
above the limit (one element alone may then exceed it) or a space meter
enforces a budget (it must see each charge).

Two rank sources are supported, mirroring the paper's discussion of
randomness:

* ``"hash"`` (default): ranks come from a :class:`UniformHash`, requiring no
  knowledge of the ground set.  Any other :class:`HashFamily` may stand in;
  its ``value_many`` ranks each batch in one call.
* ``"permutation"``: the ground set size ``m`` is known; Algorithm 2's
  explicit trick of pre-sampling ``edge_budget + degree_cap`` elements and
  ranking them by a random permutation is used, and *unsampled* elements are
  discarded outright.  This variant uses only ``O~(|H_{<=n}|)`` random bits,
  as the paper notes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from repro.coverage.bipartite import (
    BipartiteGraph,
    check_set_id,
    run_starts,
)
from repro.core.hashing import HashFamily, UniformHash
from repro.core.params import SketchParams
from repro.core.sketch import CoverageSketch
from repro.core.sketch_columns import SketchColumns, element_starts
from repro.errors import SpecError
from repro.streaming.batches import DEFAULT_BATCH_SIZE, EventBatch
from repro.streaming.events import EdgeArrival
from repro.streaming.space import SpaceMeter
from repro.utils.rng import spawn_rng

__all__ = ["StreamingSketchBuilder"]


@dataclass(frozen=True)
class _Rows:
    """Stored edges as parallel columns sorted by ``(rank, element, set)``.

    ``arrivals`` stamps each row with its admission order.  The columns are
    never written in place: every update builds new arrays, so a
    :class:`SketchColumns` may share them.
    """

    ranks: np.ndarray
    elements: np.ndarray
    set_ids: np.ndarray
    arrivals: np.ndarray

    @classmethod
    def empty(cls) -> "_Rows":
        return cls(
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.uint64),
            np.empty(0, dtype=np.uint64),
            np.empty(0, dtype=np.int64),
        )

    def __len__(self) -> int:
        return len(self.ranks)

    def columns(self) -> tuple[np.ndarray, ...]:
        return self.ranks, self.elements, self.set_ids, self.arrivals

    def take(self, index: np.ndarray | slice) -> "_Rows":
        return _Rows(*(column[index] for column in self.columns()))

    def insert(self, positions: np.ndarray, rows: "_Rows") -> "_Rows":
        """These rows with ``rows`` inserted before ``positions`` (ascending)."""
        if not len(rows):
            return self
        if not len(self):
            return rows
        pairs = zip(self.columns(), rows.columns())
        if len(rows) == 1:
            # One row: copying the slices around it beats a mask scatter.
            at = int(positions[0])
            return _Rows(*(np.concatenate((mine[:at], theirs, mine[at:])) for mine, theirs in pairs))
        slots = positions + np.arange(len(rows))
        old = np.ones(len(self) + len(rows), dtype=bool)
        old[slots] = False
        columns = []
        for mine, theirs in pairs:
            merged = np.empty(len(old), dtype=mine.dtype)
            merged[old] = mine
            merged[slots] = theirs
            columns.append(merged)
        return _Rows(*columns)


class StreamingSketchBuilder:
    """Incrementally builds a :class:`CoverageSketch` from edge arrivals.

    The stored edges are rank-sorted columns: a batch is admitted, cut and
    counted on them by array work (see the module docstring for why that is
    exactly Algorithm 2), and the :class:`BipartiteGraph` of the sketch is
    built only by :meth:`sketch`.  The per-edge :meth:`add_edge` is a
    one-row batch.

    Parameters
    ----------
    params:
        The sketch budgets (edge budget, degree cap, eviction slack).
    hash_fn:
        Rank source for the ``"hash"`` mode; defaults to
        :class:`UniformHash` seeded with ``seed``.  A family without
        ``value_many`` raises :class:`~repro.errors.SpecError`.
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
        self.hash_fn = hash_fn or UniformHash(seed)
        if not callable(getattr(self.hash_fn, "value_many", None)):
            raise SpecError(
                f"hash family {type(self.hash_fn).__name__} has no value_many; "
                "the builder ranks whole batches with it"
            )
        self.params = params
        self.rank_source = rank_source
        self.seed = seed
        self.space = space if space is not None else SpaceMeter(unit="edges")
        # The store: rank-sorted columns, and the next arrival stamp.
        self._rows = _Rows.empty()
        # columns() of the current store; _admit, through which every
        # change to the store goes, drops it.
        self._columns: SketchColumns | None = None
        self._arrivals = 0
        self._num_edges = 0
        self._truncated: set[int] = set()
        self._admission_threshold = 1.0
        self._edges_seen = 0
        self._edges_discarded = 0
        self._evictions = 0
        self._permutation_ranks: tuple[np.ndarray, np.ndarray] | None = None
        if rank_source == "permutation":
            self._permutation_ranks = self._sample_permutation()

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
        sketch's sublinear-space story.  A column is ranked by binary search
        in these arrays (``np.searchsorted``).  Unsampled elements rank
        ``inf`` and are always discarded.
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
        """The rank of one element."""
        return float(self._rank_batch(np.array([element], dtype=np.uint64))[0])

    def _rank_batch(self, elements: np.ndarray) -> np.ndarray:
        """Vectorised ranks of a whole element column.

        The sorted permutation sample is probed with one ``searchsorted``
        gather, and the hash path calls the hash family's ``value_many``.
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
        return self.hash_fn.value_many(elements)

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

        The edge is a one-row :meth:`process_batch`, so its ids convert as a
        batch's columns do.  A set id out of range raises what
        :meth:`BipartiteGraph.add_edge` raises, unless the threshold or the
        degree cap discards the edge first; a ``bool`` id raises its
        :class:`TypeError` before anything is counted, where the batch
        columns would read it as 0 or 1.
        """
        if isinstance(set_id, bool):
            raise TypeError("set_id must be an integer, got bool")
        if isinstance(element, bool):
            raise TypeError("element must be an int, got bool")
        return self.process_batch(EventBatch((set_id,), (element,))) == 1

    def _forget(self, evicted: list[int]) -> None:
        """Count the ``evicted`` elements, given in eviction order, and drop
        their truncation flags (an evicted element never returns)."""
        self._evictions += len(evicted)
        self._truncated.difference_update(evicted)

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

    def process_batch(self, batch: EventBatch, *, grouping: BatchGrouping | None = None) -> int:
        """Process a whole columnar edge batch; returns the edges stored.

        The batch's elements are ranked in one vectorised call — a
        ``searchsorted`` gather for ``rank_source="permutation"``, the hash
        family's ``value_many`` otherwise — and edges whose rank already
        clears the current admission threshold are rejected wholesale; since
        the threshold only ever decreases, the per-edge stream would reject
        every one of them too.  The survivors are grouped by element and
        pair (:class:`BatchGrouping`) and admitted on the columnar store by
        :meth:`_admit`.  A batch the closed form cannot take whole goes to
        it one row at a time (:meth:`_rows_one_at_a_time`), and a batch
        longer than ``DEFAULT_BATCH_SIZE`` that may overflow in pieces of
        that size.  Either way the builder state after a batch is
        byte-identical to feeding the same edges one at a time.

        ``grouping`` is the batch's own grouping, shared by several builders
        fed the same batch: then only its distinct elements are ranked, and
        its rows whose element clears the threshold are dropped from it.
        """
        if batch.offsets is not None:
            raise TypeError("StreamingSketchBuilder consumes edge batches, got a set batch")
        count = len(batch)
        if count == 0:
            return 0
        if count > DEFAULT_BATCH_SIZE and not self.fits_in_bulk(count):
            # A long batch that may overflow goes in pieces: the threshold
            # each piece leaves filters the next before any array work,
            # where the rows ranked above the cut would cost O(n log n).
            return sum(map(self.process_batch, batch.chunks(DEFAULT_BATCH_SIZE)))
        num_sets = self.params.num_sets
        if count > 1 and batch.set_ids.max() >= num_sets:
            # The rows before the first out-of-range set id are a batch; the
            # rest go one at a time, to raise at the row the stream would.
            bad = int((batch.set_ids >= num_sets).argmax())
            return self.process_batch(batch.take(np.arange(bad))) + self._rows_one_at_a_time(
                batch, bad
            )
        threshold = self._admission_threshold
        if grouping is None:
            ranks = self._rank_batch(batch.elements)
            survivors = (ranks < threshold).nonzero()[0]
            set_ids, elements = batch.set_ids, batch.elements
            if len(survivors) < count:
                set_ids, elements, ranks = set_ids[survivors], elements[survivors], ranks[survivors]
        else:
            key_ranks = self._rank_batch(grouping.key_elements)
            keep = key_ranks < threshold
            if not keep.all():
                grouping, key_ranks = grouping.restrict(keep), key_ranks[keep]
            elements = grouping.elements
        kept = len(elements)
        # The closed form needs every eviction to end within the limit,
        # which holds when one element's capped degree fits it, and a meter
        # without a budget to check mid-batch.
        closed_form = (
            self.space.budget is None
            and self.params.degree_cap <= self.params.max_stored_edges
        )
        if count > 1 and not (closed_form or self.fits_in_bulk(kept)):
            return self._rows_one_at_a_time(batch, 0)
        self._edges_seen += count
        self._edges_discarded += count - kept
        if not kept:
            return 0
        if grouping is None:
            grouping = BatchGrouping.of_rows(set_ids, elements, num_sets)
            key_ranks = ranks[grouping.by_element[grouping.starts]]
        return self._admit(grouping, key_ranks)

    def _rows_one_at_a_time(self, batch: EventBatch, start: int) -> int:
        """Feed the batch's rows from ``start`` on as one-row batches; return
        how many were stored."""
        rest = EventBatch(batch.set_ids[start:], batch.elements[start:])
        return sum(map(self.process_batch, rest.chunks(1)))

    def _admit(self, grouping: BatchGrouping, key_ranks: np.ndarray) -> int:
        """Admit below-threshold rows on the store; return how many were stored.

        One row is added as it is, in the per-edge stream's order: the
        degree cap (an arrival at the cap marks the element truncated), the
        set id's validation, the ``(set, element)`` dedup, then the add and
        its charge; if the edges then exceed the limit, :meth:`_shed`
        evicts.  Several rows are all stored when they fit the limit.
        Otherwise the cut ``ρ0`` is the smallest rank whose prefix exceeds
        the limit once every contribution is counted.  Rows ranked below it
        are admitted; a row ranked ``ρ >= ρ0`` is admitted up to the
        eviction row ``A_ρ`` of its rank, the contributing row at which the
        prefix of ``ρ`` first exceeds the limit.
        """
        self._columns = None
        batch = _Admission(self._rows, grouping, key_ranks, self.params)
        limit = self.params.max_stored_edges
        if len(batch) == 1:
            if not batch.capped[0]:
                check_set_id(int(batch.set_ids[0]), self.params.num_sets)
            stored = self._commit(batch, None, None)
            if self._num_edges > limit:
                self._shed()
            return stored
        cut = None if self.fits_in_bulk(len(batch)) else batch.cut(limit)
        if cut is None:
            return self._commit(batch, None, None)
        runs = batch.rank_runs
        first = int(runs.searchsorted(cut))
        need = limit + 1 - batch.rows.ranks.searchsorted(runs[first:], "right")
        # A row ranked at or above the cut comes by its rank's A while the
        # contributions before it, ranked at most its rank, number fewer
        # than the rank's need.  Those ranked below the cut count for every
        # rank: a running count.  The rest are counted among the rows at
        # or above the cut alone.
        run_of = batch.key_runs[batch.group] - first
        high = (run_of >= 0).nonzero()[0]
        below = (batch.contributing & (run_of < 0)).cumsum()[high]
        earlier = below + _earlier_points(run_of[high], batch.contributing[high])
        admitted = np.ones(len(batch), dtype=bool)
        admitted[high] = earlier < need[run_of[high]]
        return self._commit(batch, admitted, cut)

    def _shed(self) -> None:
        """Evict the top elements, in ``(rank descending, element
        ascending)`` order, while the edges exceed the limit and another
        element is tracked: the last one stays even when it alone exceeds
        the limit, as it may when the degree cap does.

        Only the elements ranked at or above the rank of the first row past
        the limit can go, since the rows ranked below it fit.
        """
        rows, limit = self._rows, self.params.max_stored_edges
        low = int(rows.ranks.searchsorted(rows.ranks[limit]))
        starts = element_starts(rows.elements[low:]) + low
        lengths = np.diff(starts, append=len(rows))
        ranks = rows.ranks[starts]
        order = np.lexsort((rows.elements[starts], -ranks))
        # The shortest prefix of that order that frees enough rows, less the
        # last tracked element if it would take them all.
        leave = int(lengths[order].cumsum().searchsorted(len(rows) - limit)) + 1
        if leave == len(order) and not low:
            leave -= 1
        if not leave:
            return
        victims = order[:leave]
        gone = np.zeros(len(starts), dtype=bool)
        gone[victims] = True
        keep = np.ones(len(rows), dtype=bool)
        keep[low:] = ~gone.repeat(lengths)
        self._rows = rows.take(keep)
        self._num_edges = len(self._rows)
        self.space.release(len(rows) - self._num_edges)
        self._admission_threshold = min(self._admission_threshold, float(ranks[victims[-1]]))
        self._forget(rows.elements[starts[victims]].tolist())

    def _commit(
        self, batch: "_Admission", admitted: np.ndarray | None, cut: float | None
    ) -> int:
        """Apply a batch's outcome; return how many of its rows were stored.

        ``admitted`` marks the rows that pass the threshold when they
        arrive (None: all of them); the admitted contributing rows are
        stored.  With a ``cut`` the evictions run (:meth:`_cut`) and only
        the rows below the cut join the store.  Then the truncation flags of
        admitted rows at the cap, the threshold, the counters and the space
        meter follow.
        """
        stored, capped = batch.contributing, batch.capped
        if admitted is not None:
            stored, capped = stored & admitted, capped & admitted
        if capped.any():
            self._truncated.update(batch.elements[capped].tolist())
        stored_so_far = stored.cumsum()
        count = int(stored_so_far[-1])
        arrivals = self._arrivals - 1 + stored_so_far
        self._arrivals += count
        kept, joining, evicted, (start, removed) = batch.rows, stored, [], (0, 0)
        if cut is not None:
            kept, joining, evicted, (start, removed) = self._cut(batch, stored, cut)
        order = batch.in_store_order(joining)
        positions = batch.positions[order]
        if removed:
            positions[positions >= start] -= removed
        # The id columns join as views with numpy's own uint64 dtype: a
        # column of an unpickled batch carries an equal dtype object that
        # pickles apart from it.
        self._rows = kept.insert(
            positions,
            _Rows(
                batch.key_ranks[batch.group[order]],
                batch.elements[order].view(np.uint64),
                batch.set_ids[order].view(np.uint64),
                arrivals[order],
            ),
        )
        before, self._num_edges = self._num_edges, len(self._rows)
        if evicted:
            self._admission_threshold = min(self._admission_threshold, cut)
            self._forget(evicted)
        self._edges_discarded += len(stored) - count
        if self.space.budget is not None:
            # Only one-row batches reach a meter with a budget, which checks
            # each charge.
            if count:
                self.space.charge(count)
            return count
        # Anything evicted means the stored edges reached limit + 1: every
        # eviction follows the row that first passes the limit.
        high = self.params.max_stored_edges + 1 - before if evicted else count
        self.space.apply(count, before + count - self._num_edges, high)
        return count

    def _cut(
        self, batch: "_Admission", stored: np.ndarray, cut: float
    ) -> tuple[_Rows, np.ndarray, list[int], tuple[int, int]]:
        """Evict at the cut rank: ``(kept store rows, batch rows that join
        the store, evicted elements in eviction order, (start, removed))``.

        Every element ranked above ``cut`` that stored an edge is evicted,
        and so is the element ranked ``cut`` (:meth:`_split_tie` when
        several share it).  The kept store rows are the ones below the cut;
        batch positions at or after ``start`` move down by ``removed`` rows.
        """
        rows = batch.rows
        low, top = (int(rows.ranks.searchsorted(cut, side)) for side in ("left", "right"))
        first, past = (int(batch.key_ranks.searchsorted(cut, side)) for side in ("left", "right"))
        degrees = batch.key_degrees + np.bincount(
            batch.group[stored], minlength=len(batch.key_elements)
        )
        tied = np.concatenate([rows.elements[low:top], batch.key_elements[first:past]])
        if (tied == tied[0]).all():
            # One element has the cut rank; it stored an edge, since the
            # prefix first exceeds the limit there.
            gone, survivors = tied[:1], top
        else:
            gone, survivors = self._split_tie(batch, stored, degrees, low, top, first, past)
        last = gone[-1]
        # Above the cut: the store's elements and the batch's new ones.
        above = element_starts(rows.elements[top:]) + top
        fresh = past + ((batch.key_degrees[past:] == 0) & (degrees[past:] > 0)).nonzero()[0]
        ranks = np.concatenate([rows.ranks[above], batch.key_ranks[fresh]])
        elements = np.concatenate([rows.elements[above], batch.key_elements[fresh]])
        evicted = elements[np.lexsort((elements, -ranks))].tolist() + gone.tolist()
        joins = np.zeros(len(degrees), dtype=bool)
        joins[:first] = True
        joins[first:past] = batch.key_elements[first:past] > last
        keep = slice(0, low)
        if survivors < top:
            keep = np.concatenate([np.arange(low), np.arange(survivors, top)])
        return rows.take(keep), stored & joins[batch.group], evicted, (survivors, survivors - low)

    def _split_tie(
        self,
        batch: "_Admission",
        stored: np.ndarray,
        degrees: np.ndarray,
        low: int,
        top: int,
        first: int,
        past: int,
    ) -> tuple[np.ndarray, int]:
        """The evicted elements of a cut rank that several elements share,
        ascending, and the store row where its survivors start.

        The store's rows ``[low, top)`` and the batch's keys
        ``[first, past)`` hold the rank; ``degrees`` are the keys' final
        degrees.  The elements leave smallest first while the edges ranked
        below the rank plus those of the element and of the larger elements
        of the rank exceed the limit.
        """
        rows = batch.rows
        below = low + int(degrees[:first].sum() - batch.key_degrees[:first].sum())
        run = rows.elements[low:top]
        starts = element_starts(run)
        members = np.union1d(run[starts], batch.key_elements[first:past])
        member_degrees = np.zeros(len(members), dtype=np.int64)
        member_degrees[members.searchsorted(run[starts])] = np.diff(starts, append=len(run))
        member_degrees[members.searchsorted(batch.key_elements[first:past])] = degrees[first:past]
        over = below + member_degrees[::-1].cumsum()[::-1] > self.params.max_stored_edges
        gone = members[over & (member_degrees > 0)]
        return gone, low + int(run.searchsorted(gone[-1], "right"))

    def _by_admission(self) -> tuple[list[int], list[float], Iterator[list[int]]]:
        """The stored elements in order of first admission, their ranks, and
        each one's set ids in admission order."""
        rows = self._rows
        starts = element_starts(rows.elements)
        first = np.minimum.reduceat(rows.arrivals, starts) if len(rows) else starts
        degrees = np.diff(starts, append=len(rows))
        by_row = np.lexsort((rows.arrivals, np.repeat(first, degrees)))
        appearance = np.argsort(first)
        bounds = np.cumsum(degrees[appearance]).tolist()
        set_ids = rows.set_ids[by_row].tolist()
        chunks = map(set_ids.__getitem__, map(slice, [0] + bounds[:-1], bounds))
        firsts = starts[appearance]
        return rows.elements[firsts].tolist(), rows.ranks[firsts].tolist(), chunks

    # ------------------------------------------------------------------ #
    # result
    # ------------------------------------------------------------------ #
    def _threshold(self) -> float:
        """``p*``: the largest retained rank once anything was rejected
        (evicted, or ranked above the lowered admission threshold), 1.0 when
        the whole stream fit — mirroring the offline convention."""
        rows = self._rows
        if not len(rows):
            return self._admission_threshold
        if self._evictions > 0 or self._admission_threshold < 1.0:
            return float(rows.ranks[-1])
        return 1.0

    def sketch(self) -> CoverageSketch:
        """The sketch built so far, with its graph built from the store.

        The stored rows are replayed in admission order, so the graph's
        :meth:`~BipartiteGraph.elements` and each adjacency set come out as
        the per-edge stream would fill them.
        """
        elements, ranks, set_ids = self._by_admission()
        return CoverageSketch(
            graph=BipartiteGraph.from_element_sets(
                self.params.num_sets, dict(zip(elements, map(set, set_ids)))
            ),
            params=self.params,
            threshold=self._threshold(),
            element_hashes=dict(zip(elements, ranks)),
            truncated_elements=frozenset(self._truncated),
        )

    def columns(self) -> SketchColumns:
        """The sketch built so far as rank-sorted columns, with no graph built.

        Holds what :meth:`sketch` holds — rows, ranks, threshold ``p*`` and
        truncation flags, so ``columns().to_sketch(params)`` equals
        ``sketch()`` — as flat numpy columns: the form a distributed map job
        ships home (no Python sets to pickle).  The store is already sorted
        the way :class:`SketchColumns` is, so its columns are shared as
        they are, and the same object returns until the store next changes:
        the Algorithm 4 checks of one builder's guesses share it, and with
        it its CSR by set.
        """
        if self._columns is None:
            rows = self._rows
            truncated = np.fromiter(
                self._truncated, dtype=np.uint64, count=len(self._truncated)
            )
            self._columns = SketchColumns(
                ranks=rows.ranks,
                elements=rows.elements,
                set_ids=rows.set_ids,
                threshold=self._threshold(),
                truncated=np.unique(truncated),
            )
        return self._columns

    def describe(self) -> dict[str, float | int | str]:
        """Diagnostics for logging and tests."""
        return {
            "rank_source": self.rank_source,
            "stored_edges": self.stored_edges,
            "tracked_elements": len(element_starts(self._rows.elements)),
            "edges_seen": self._edges_seen,
            "edges_discarded": self._edges_discarded,
            "evictions": self._evictions,
            "admission_threshold": self._admission_threshold,
            "space_peak": self.space.peak,
        }


@dataclass(frozen=True)
class BatchGrouping:
    """A batch's rows grouped by element and pair: the rank-free half of an
    admission, computed once and shared by every builder fed the batch.

    The batch's distinct elements are its *keys*, ascending.  ``order``
    lists the rows by ``(element, set, row)`` and ``by_element`` by
    ``(element, row)``: both hold each key's rows as one block of
    ``lengths[key]`` rows starting at ``starts[key]``.  Per row: ``key_of``
    (its key's index), ``first`` (the first row of its ``(set, element)``
    pair) and :attr:`earlier` (how many first rows of its element come
    before it).

    A builder's rank filter keeps or drops an element's rows together, so
    :meth:`restrict` to the kept keys is exactly the grouping of the kept
    rows; that is why one grouping serves builders of any threshold.
    """

    set_ids: np.ndarray
    elements: np.ndarray
    key_elements: np.ndarray
    key_of: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    order: np.ndarray
    by_element: np.ndarray
    first: np.ndarray

    @classmethod
    def of(cls, batch: EventBatch, num_sets: int) -> "BatchGrouping | None":
        """The grouping of an edge batch whose set ids are all below
        ``num_sets``; None for any other batch, which each builder then
        admits on its own (and raises on, at the row the scalar stream
        would)."""
        if batch.offsets is not None or not len(batch):
            return None
        if int(batch.set_ids.max()) >= num_sets:
            return None
        return cls.of_rows(batch.set_ids, batch.elements, num_sets)

    @classmethod
    def of_rows(cls, set_ids: np.ndarray, elements: np.ndarray, num_sets: int) -> "BatchGrouping":
        """The grouping of rows whose set ids are all below ``num_sets``
        (a lone row's set id may be any)."""
        if len(elements) == 1:
            # One row is its own key, pair and block: nothing to sort.
            zero = np.zeros(1, dtype=np.intp)
            return cls(
                set_ids, elements, elements, zero, zero, np.ones(1, dtype=np.intp),
                zero, zero, np.ones(1, dtype=bool),
            )
        by_element = elements.argsort(kind="stable")
        grouped = elements[by_element]
        boundary = run_starts(grouped)
        starts = boundary.nonzero()[0]
        sorted_key = boundary.cumsum() - 1
        key_of = np.empty_like(sorted_key)
        key_of[by_element] = sorted_key
        # The pairs are already key-major, so this stable sort, which puts
        # each key's rows in (set, row) order, is near-linear.
        pairs = sorted_key * num_sets + set_ids[by_element].astype(np.int64)
        by_pair = pairs.argsort(kind="stable")
        order = by_element[by_pair]
        first = np.zeros(len(elements), dtype=bool)
        first[order[run_starts(pairs[by_pair])]] = True
        lengths = np.bincount(sorted_key, minlength=len(starts))
        return cls(
            set_ids, elements, grouped[starts], key_of, starts, lengths, order, by_element, first
        )

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def earlier(self) -> np.ndarray:
        """Per row, how many first rows of its element come before it."""
        return self.earlier_of(self.first)

    def earlier_of(self, flags: np.ndarray) -> np.ndarray:
        """Per row, how many flagged rows of its element come before it."""
        flagged = flags[self.by_element]
        running = flagged.cumsum() - flagged
        earlier = np.empty(len(flags), dtype=np.int64)
        earlier[self.by_element] = running - running[self.starts].repeat(self.lengths)
        return earlier

    def restrict(self, keep: np.ndarray) -> "BatchGrouping":
        """The grouping of the rows whose key ``keep`` marks, renumbered."""
        rows = keep[self.key_of]
        local = rows.cumsum() - 1
        kept = keep.nonzero()[0]
        lengths = self.lengths[kept]
        survivors = rows.nonzero()[0]
        return BatchGrouping(
            self.set_ids[survivors],
            self.elements[survivors],
            self.key_elements[kept],
            (keep.cumsum() - 1)[self.key_of[survivors]],
            lengths.cumsum() - lengths,
            lengths,
            local[self.order[rows[self.order]]],
            local[self.by_element[rows[self.by_element]]],
            self.first[survivors],
        )


class _Admission:
    """One batch's rows classified against one builder's columnar store.

    The rank-free part comes from a :class:`BatchGrouping` of the rows;
    this class adds what depends on the builder: the keys' ranks and their
    order, the store's rows, and so which pairs are new and where they
    would enter.  The keys are sorted like the store by ``(rank, element)``
    (one sort of the keys; ranks tie only when hashes do, and then the
    smaller element comes first).  Per row: ``group`` (its key's index in
    that order), ``contributing`` (a new pair below the degree cap: the row
    stores an edge if it is admitted), ``capped`` (its element is at the
    cap: an admitted row marks it truncated) and ``positions`` (where the
    row would enter the store).  Per key: ``key_ranks``, ``key_elements``,
    ``key_degrees`` (its stored edges) and ``key_runs`` (the index of its
    rank in ``rank_runs``, the batch's distinct ranks ascending).
    """

    def __init__(
        self,
        rows: _Rows,
        grouping: BatchGrouping,
        key_ranks: np.ndarray,
        params: SketchParams,
    ) -> None:
        self.rows, self.grouping = rows, grouping
        self.set_ids, self.elements = grouping.set_ids, grouping.elements
        # The keys ascend by element, so a stable sort by rank breaks ties by
        # element; ranks tie only when hashes do, so the cheaper unstable
        # sort usually gives the same order.
        by_rank = key_ranks.argsort()
        rank_starts = run_starts(key_ranks[by_rank])
        if not rank_starts.all():
            by_rank = key_ranks.argsort(kind="stable")
        self.by_rank, self.rank_starts = by_rank, rank_starts
        self.key_ranks = key_ranks[by_rank]
        self.key_elements = grouping.key_elements[by_rank]
        rank_order = np.empty_like(by_rank)
        rank_order[by_rank] = np.arange(len(by_rank))
        group = self.group = rank_order[grouping.key_of]
        lo = rows.ranks.searchsorted(self.key_ranks, "left")
        hi = rows.ranks.searchsorted(self.key_ranks, "right")
        _settle_ties(rows, self.key_elements, lo, hi)
        degrees = self.key_degrees = hi - lo
        self.positions = lo[group]
        row_degrees = degrees[group]
        new, earlier = grouping.first, grouping.earlier
        touched = row_degrees.nonzero()[0]
        if len(touched):
            # The stored set ids of the batch's stored elements, one sorted
            # run each and keyed (run, set id): a row's probe finds whether
            # its pair is stored and how many of its element's sets sort
            # below it.
            width = params.num_sets
            stored_keys = degrees.nonzero()[0]
            lengths = degrees[stored_keys]
            ends = lengths.cumsum()
            offsets = ends - lengths
            gather = np.repeat(lo[stored_keys] - offsets, lengths) + np.arange(ends[-1])
            runs = np.repeat(np.arange(len(stored_keys)), lengths)
            stored_pairs = runs * width + rows.set_ids[gather].astype(np.int64)
            run_of = (degrees > 0).cumsum()[group[touched]] - 1
            probes = run_of * width + self.set_ids[touched].astype(np.int64)
            at = stored_pairs.searchsorted(probes)
            self.positions[touched] += at - offsets[run_of]
            stale = touched[stored_pairs[np.minimum(at, ends[-1] - 1)] == probes]
            if len(stale):
                # A stored pair is not new: recount the earlier new pairs.
                new = new.copy()
                new[stale] = False
                earlier = grouping.earlier_of(new)
        # Degree before each row: stored degree plus new pairs on earlier
        # rows of the same element.
        level = earlier + row_degrees
        self.contributing = new & (level < params.degree_cap)
        self.capped = level >= params.degree_cap

    def __len__(self) -> int:
        return len(self.elements)

    def in_store_order(self, flags: np.ndarray) -> np.ndarray:
        """The flagged rows in the store's order, ``(rank, element, set,
        row)``: the grouping's element blocks, gathered in key order."""
        lengths = self.grouping.lengths[self.by_rank]
        ends = lengths.cumsum()
        index = (self.grouping.starts[self.by_rank] - ends + lengths).repeat(lengths)
        order = self.grouping.order[index + np.arange(len(self))]
        return order[flags[order]]

    @cached_property
    def rank_runs(self) -> np.ndarray:
        """The batch's distinct ranks, ascending."""
        return self.key_ranks[self.rank_starts]

    @cached_property
    def key_runs(self) -> np.ndarray:
        """Per key, the index of its rank in :attr:`rank_runs`."""
        return self.rank_starts.cumsum() - 1

    def cut(self, limit: int) -> float | None:
        """The smallest rank whose prefix exceeds ``limit`` once every
        contributing row is counted (None when no prefix does).

        Prefixes are checked at the batch's ranks and, in each gap between
        them, at the store row where the count crosses: with the
        contributions below the gap fixed, that is row
        ``limit - contributions``.
        """
        runs, rows = self.rank_runs, self.rows
        counts = np.bincount(
            self.key_runs[self.group[self.contributing]], minlength=len(runs)
        )
        prefix = np.cumsum(counts)
        over = np.flatnonzero(np.searchsorted(rows.ranks, runs, "right") + prefix > limit)
        first = int(over[0]) if len(over) else len(runs)
        row = limit - (int(prefix[first - 1]) if first else 0)
        if row < len(rows) and (first == len(runs) or rows.ranks[row] < runs[first]):
            return float(rows.ranks[row])
        return float(runs[first]) if first < len(runs) else None


def _settle_ties(rows: _Rows, elements: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    """Narrow each key's rank run ``[lo, hi)`` in the store to its element's
    rows (an absent key gets ``lo == hi`` at its insertion point).

    A rank names one element unless hashes tie, so a run is either empty or
    the element's own; only a run shared with other elements, which is
    sorted by element, needs a search.
    """
    shared = (hi > lo).nonzero()[0]
    if len(shared):
        own = (rows.elements[lo[shared]] == elements[shared]) & (
            rows.elements[hi[shared] - 1] == elements[shared]
        )
        for key in shared[~own].tolist():
            run = rows.elements[lo[key] : hi[key]]
            lo[key], hi[key] = (
                lo[key] + np.searchsorted(run, elements[key], "left"),
                lo[key] + np.searchsorted(run, elements[key], "right"),
            )


#: Rows per tile that :func:`_earlier_points` counts densely before merging.
_TILE = 32


def _earlier_points(kappa: np.ndarray, points: np.ndarray) -> np.ndarray:
    """For each row ``t``, how many rows ``i < t`` with ``points[i]`` have
    ``kappa[i] <= kappa[t]``.

    A bottom-up merge sort over the row order.  Tiles of ``_TILE`` rows are
    counted densely; then each level merges neighbouring runs, each sorted
    by ``kappa``, and adds to every row of a right run the points of its
    left run at or below the row's ``kappa`` (one binary search for all
    runs of the level).  ``O(n log n)`` work in ``O(log n)`` numpy passes,
    however many distinct ``kappa`` there are.
    """
    count = len(kappa)
    kappa = kappa.astype(np.int64)
    top = int(kappa.max(initial=0)) + 1
    tiles = -(-count // _TILE)
    padded = np.full(tiles * _TILE, top, dtype=np.int64)
    padded[:count] = kappa
    marks = np.zeros(tiles * _TILE, dtype=bool)
    marks[:count] = points
    padded, marks = padded.reshape(tiles, _TILE), marks.reshape(tiles, _TILE)
    below = (padded[:, None, :] <= padded[:, :, None]) & marks[:, None, :]
    earlier = below & np.tri(_TILE, k=-1, dtype=bool)
    counts = earlier.sum(axis=2).ravel()[:count]
    order = ((np.arange(count) // _TILE) * top + kappa).argsort(kind="stable")
    width = _TILE
    while width < count:
        pair = order // (2 * width)
        right = (order & width) != 0
        keys = pair * top + kappa[order]
        left_keys = keys[~right]
        sums = np.concatenate(([0], points[order[~right]].cumsum()))
        hit = right.nonzero()[0]
        upto = left_keys.searchsorted(keys[hit], "right")
        start = left_keys.searchsorted(pair[hit] * top, "left")
        counts[order[hit]] += sums[upto] - sums[start]
        order = order[keys.argsort(kind="stable")]
        width *= 2
    return counts
