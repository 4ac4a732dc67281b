"""Bipartite set/element graph — the paper's model of a coverage instance.

The paper models a coverage instance as a bipartite graph ``G`` with the
family of sets :math:`\\mathcal{S}` on one side and the ground set of
elements :math:`\\mathcal{E}` on the other; a set vertex is adjacent to the
elements it contains, and the coverage function is
``C(S) = |Γ(G, S)|`` (Section 1.1).

:class:`BipartiteGraph` is the low-level, integer-id representation used by
every algorithm in the library: sets are ``0 .. num_sets-1`` and elements are
arbitrary non-negative integers (so a sketch that keeps only a few elements
does not need to re-index them).  Label handling lives one level up in
:class:`repro.coverage.setsystem.SetSystem`.
"""

from __future__ import annotations

import operator
from itertools import chain, compress
from typing import AbstractSet, Iterable, Iterator, Mapping

import numpy as np

from repro.errors import InvalidInstanceError, SpecError
from repro.utils.validation import check_non_negative_int, check_positive_int

__all__ = [
    "BipartiteGraph",
    "check_parallel_columns",
    "check_set_column",
    "check_set_id",
    "count_distinct",
    "dense_ids",
    "extend_adjacency",
    "first_occurrences",
    "run_starts",
]


#: Total members of the chosen sets from which :meth:`BipartiteGraph.coverage`
#: counts on the sorted set-major layout instead of a set union.
_SORTED_COVERAGE_MIN_MEMBERS = 1 << 15


class BipartiteGraph:
    """Adjacency structure between ``num_sets`` sets and integer elements.

    The same class backs both full input instances and the paper's sketches,
    which are themselves subgraphs with some elements and edges discarded.
    Edges can be added but not removed: a sketch drops elements before its
    graph is built (see :mod:`repro.core.streaming_sketch`).

    Parameters
    ----------
    num_sets:
        Number of set vertices; set ids are ``0 .. num_sets - 1``.

    Notes
    -----
    * Parallel edges are ignored: adding the same (set, element) edge twice
      leaves the graph unchanged and reports that nothing was added.
    * ``num_elements`` counts elements incident to at least one edge, which
      matches the paper's convention that "there is no isolated vertex in
      :math:`\\mathcal{E}`".
    * The set-major layout behind :meth:`to_set_columns` and :meth:`coverage`
      is built on first use and kept until the next :meth:`add_edge` or
      :meth:`add_columns`.  It is not pickled and takes no part in ``==``.
    """

    __slots__ = ("_num_sets", "_set_adj", "_elem_adj", "_num_edges", "_layout")

    def __init__(self, num_sets: int) -> None:
        check_positive_int(num_sets, "num_sets")
        self._num_sets = num_sets
        self._set_adj: list[set[int]] = [set() for _ in range(num_sets)]
        self._elem_adj: dict[int, set[int]] = {}
        self._num_edges = 0
        self._layout: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def __getstate__(self) -> tuple[int, list[set[int]], dict[int, set[int]], int]:
        return self._num_sets, self._set_adj, self._elem_adj, self._num_edges

    def __setstate__(self, state: tuple[int, list[set[int]], dict[int, set[int]], int]) -> None:
        self._num_sets, self._set_adj, self._elem_adj, self._num_edges = state
        self._layout = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_sets(
        cls, sets: Mapping[int, Iterable[int]] | Iterable[Iterable[int]], num_sets: int | None = None
    ) -> "BipartiteGraph":
        """Build a graph from a mapping (or list) of set id → member elements.

        When ``sets`` is a plain iterable its position is the set id.  The
        number of set vertices defaults to the number of entries (or the
        largest key + 1 for mappings) but can be forced larger with
        ``num_sets`` so empty sets at the tail are representable.
        """
        if isinstance(sets, Mapping):
            items = list(sets.items())
            inferred = (max(sets) + 1) if sets else 0
        else:
            items = list(enumerate(sets))
            inferred = len(items)
        total = num_sets if num_sets is not None else inferred
        if total <= 0:
            raise InvalidInstanceError("a coverage instance needs at least one set")
        graph = cls(total)
        for set_id, members in items:
            for element in members:
                graph.add_edge(set_id, element)
        return graph

    @classmethod
    def from_columns(
        cls, num_sets: int, set_ids: np.ndarray, elements: np.ndarray
    ) -> "BipartiteGraph":
        """Build a graph from parallel ``(set_id, element)`` integer columns.

        A new graph filled by one :meth:`add_columns` call, so it equals an
        :meth:`add_edge` loop over the same rows down to iteration order.
        """
        graph = cls(num_sets)
        graph.add_columns(set_ids, elements)
        return graph

    @classmethod
    def from_element_sets(
        cls, num_sets: int, owners: Mapping[int, AbstractSet[int]]
    ) -> "BipartiteGraph":
        """Build a graph from a mapping element → ids of the sets containing it.

        The element-keyed twin of :meth:`from_sets`.  The mapping's order
        becomes :meth:`elements` order and each element's set is copied as
        it is; the set side is filled in element order.  The set ids must be
        in range: they are not validated.
        """
        graph = cls(num_sets)
        graph._elem_adj = {element: set(sets) for element, sets in owners.items()}
        set_adj = graph._set_adj
        for element, sets in graph._elem_adj.items():
            for set_id in sets:
                set_adj[set_id].add(element)
        graph._num_edges = sum(map(len, graph._elem_adj.values()))
        return graph

    def to_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """All edges as parallel ``uint64`` ``(set_ids, elements)`` columns.

        Rows are grouped by element in :meth:`elements` order.  The columns
        are filled by C-level iteration over the adjacency, so exporting a
        graph costs no per-edge Python bytecode.
        """
        count = len(self._elem_adj)
        elements = np.fromiter(self._elem_adj, dtype=np.uint64, count=count)
        degrees = np.fromiter(map(len, self._elem_adj.values()), dtype=np.intp, count=count)
        set_ids = np.fromiter(
            chain.from_iterable(self._elem_adj.values()),
            dtype=np.uint64,
            count=self._num_edges,
        )
        return set_ids, np.repeat(elements, degrees)

    def to_set_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """All edges as parallel ``uint64`` ``(set_ids, elements)`` columns,
        in exactly :meth:`edges` order (grouped by set, ascending set id).

        The element column is the graph's memoised set-major layout,
        returned read-only: it is filled once by C-level iteration over the
        adjacency, reused by every later call and by :meth:`coverage`, and
        cleared by :meth:`add_edge` and :meth:`add_columns`.  The set-id
        column is a fresh ``np.repeat`` of the set degrees.
        """
        elements, _, degrees = self._set_layout()
        return np.repeat(np.arange(self._num_sets, dtype=np.uint64), degrees), elements

    def _set_layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The memoised ``(elements, offsets, degrees)`` set-major layout: the
        members of set ``s`` are ``elements[offsets[s]:offsets[s + 1]]`` in
        :meth:`edges` order.  All three arrays are read-only.  Two threads
        may both fill it; they compute identical arrays, and one assignment
        wins."""
        layout = self._layout
        if layout is None:
            degrees = np.fromiter(map(len, self._set_adj), dtype=np.intp, count=self._num_sets)
            elements = np.fromiter(
                chain.from_iterable(self._set_adj), dtype=np.uint64, count=self._num_edges
            )
            offsets = np.zeros(self._num_sets + 1, dtype=np.intp)
            np.cumsum(degrees, out=offsets[1:])
            for column in (elements, offsets, degrees):
                column.flags.writeable = False
            layout = self._layout = (elements, offsets, degrees)
        return layout

    def copy(self) -> "BipartiteGraph":
        """Return a deep copy (adjacency sets are copied)."""
        clone = BipartiteGraph(self._num_sets)
        clone._set_adj = [set(members) for members in self._set_adj]
        clone._elem_adj = {e: set(s) for e, s in self._elem_adj.items()}
        clone._num_edges = self._num_edges
        return clone

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def add_edge(self, set_id: int, element: int) -> bool:
        """Add the membership edge (set_id, element).

        Returns ``True`` when the edge is new, ``False`` when it already
        existed (duplicate arrivals in a stream are a no-op).
        """
        self._check_set_id(set_id)
        check_non_negative_int(element, "element")
        members = self._set_adj[set_id]
        if element in members:
            return False
        self._layout = None
        members.add(element)
        self._elem_adj.setdefault(element, set()).add(set_id)
        self._num_edges += 1
        return True

    def add_columns(
        self,
        set_ids: np.ndarray,
        elements: np.ndarray,
        element_ids: list[int] | None = None,
    ) -> np.ndarray:
        """Add the edges of parallel ``(set_id, element)`` integer columns.

        The bulk twin of an :meth:`add_edge` loop over the same rows, and
        equal to it down to iteration order: new elements join
        :meth:`elements` in order of their first row, every adjacency set
        grows in row order, and a row already stored (in the graph or
        earlier in the columns) counts once.  Returns a boolean mask of the
        rows that were new, where the loop's ``add_edge`` returns ``True``.
        The columns are validated before anything is inserted: columns of
        unequal length raise :class:`~repro.errors.SpecError`, and an
        out-of-range set id raises the
        :class:`~repro.errors.InvalidInstanceError` the loop would raise at
        its first offending row.

        ``element_ids`` is ``elements.tolist()`` when the caller already
        has it: the graph then stores those int objects, so graphs filled
        from one batch share them, as graphs fed the batch's scalar events do.
        """
        set_ids, elements = check_parallel_columns(set_ids, elements)
        rows = len(set_ids)
        if rows == 0:
            return np.zeros(0, dtype=bool)
        for name, column in (("set_id", set_ids), ("element", elements)):
            if column.dtype == np.bool_ or column.dtype.kind not in "iu":
                raise TypeError(f"{name} column must be integers, got {column.dtype}")
        if elements.min() < 0:
            raise ValueError(f"element must be >= 0, got {elements.min()}")
        check_set_column(set_ids, self._num_sets)
        if element_ids is None:
            element_ids = elements.tolist()
        self._layout = None
        stored = self._stored(set_ids.tolist(), element_ids) if self._num_edges else None

        # Set side: rows grouped by set id, row order kept inside each group
        # (set.update adds a list's items in order, as add() calls would).
        by_set = np.argsort(set_ids, kind="stable")
        grouped = set_ids[by_set]
        starts, stops = _runs(grouped)
        targets = list(map(self._set_adj.__getitem__, grouped[starts].tolist()))
        before = sum(map(len, targets))
        members_by_set = list(map(element_ids.__getitem__, by_set.tolist()))
        for members, chunk in zip(targets, _slices(members_by_set, starts, stops)):
            members.update(chunk)
        added = sum(map(len, targets)) - before
        self._num_edges += added
        extend_adjacency(self._elem_adj, elements, set_ids, element_ids)

        if added == rows:
            return np.ones(rows, dtype=bool)
        new = first_occurrences(set_ids, elements)
        return new if stored is None else new & ~stored

    def _stored(self, set_ids: list[int], elements: list[int]) -> np.ndarray:
        members = map(self._set_adj.__getitem__, set_ids)
        return np.fromiter(
            map(operator.contains, members, elements), dtype=bool, count=len(set_ids)
        )

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def num_sets(self) -> int:
        """Number of set vertices (``n`` in the paper)."""
        return self._num_sets

    @property
    def num_elements(self) -> int:
        """Number of non-isolated element vertices currently present."""
        return len(self._elem_adj)

    @property
    def num_edges(self) -> int:
        """Number of membership edges currently stored."""
        return self._num_edges

    def elements(self) -> Iterator[int]:
        """Iterate over the element ids with at least one edge."""
        return iter(self._elem_adj)

    def set_ids(self) -> range:
        """The range of valid set ids."""
        return range(self._num_sets)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over all (set_id, element) edges."""
        for set_id, members in enumerate(self._set_adj):
            for element in members:
                yield (set_id, element)

    def elements_of(self, set_id: int) -> frozenset[int]:
        """The elements contained in one set."""
        self._check_set_id(set_id)
        return frozenset(self._set_adj[set_id])

    def sets_of(self, element: int) -> frozenset[int]:
        """The sets containing one element (empty if the element is absent)."""
        return frozenset(self._elem_adj.get(element, frozenset()))

    def set_degree(self, set_id: int) -> int:
        """Size of one set (its degree on the set side)."""
        self._check_set_id(set_id)
        return len(self._set_adj[set_id])

    def set_degrees(self) -> list[int]:
        """The size of every set, in set id order."""
        return list(map(len, self._set_adj))

    def marginal_gain(self, set_id: int, covered: AbstractSet[int]) -> int:
        """``|S − covered|``: how many elements of one set ``covered`` lacks."""
        self._check_set_id(set_id)
        return len(self._set_adj[set_id] - covered)

    def element_degree(self, element: int) -> int:
        """Number of sets containing the element (0 if absent)."""
        return len(self._elem_adj.get(element, ()))

    def has_element(self, element: int) -> bool:
        """Whether the element currently has at least one edge."""
        return element in self._elem_adj

    def neighbors(self, set_ids: Iterable[int]) -> set[int]:
        """``Γ(G, S)``: the union of the member elements of ``set_ids``."""
        covered: set[int] = set()
        for set_id in set_ids:
            self._check_set_id(set_id)
            covered |= self._set_adj[set_id]
        return covered

    def coverage(self, set_ids: Iterable[int]) -> int:
        """``|Γ(G, S)|``: the coverage value of a subfamily of sets.

        Repeated ids count once; every id is checked as :meth:`neighbors`
        checks it.  When the chosen sets hold at least 32,768 members in
        all (``_SORTED_COVERAGE_MIN_MEMBERS``), they are counted
        on the memoised set-major layout (see :meth:`to_set_columns`): their
        element slices are concatenated and the distinct values counted by
        :func:`count_distinct`, several times faster than a set union at
        that size.  Smaller families take the union of their Python sets,
        which holds the interpreter lock throughout: ``np.sort`` releases
        it, and under concurrent serving threads each release costs a wait
        of up to the interpreter's switch interval.
        """
        chosen = list(set_ids)
        for set_id in chosen:
            self._check_set_id(set_id)
        distinct = list(dict.fromkeys(chosen))
        members = [self._set_adj[set_id] for set_id in distinct]
        if sum(map(len, members)) < _SORTED_COVERAGE_MIN_MEMBERS:
            return len(set().union(*members))
        elements, offsets, _ = self._set_layout()
        return count_distinct(
            np.concatenate([elements[offsets[s] : offsets[s + 1]] for s in distinct])
        )

    def coverage_fraction(self, set_ids: Iterable[int]) -> float:
        """Fraction of the current elements covered by ``set_ids``."""
        total = self.num_elements
        if total == 0:
            return 1.0
        return self.coverage(set_ids) / total

    # ------------------------------------------------------------------ #
    # derived graphs
    # ------------------------------------------------------------------ #
    def induced_on_elements(self, elements: Iterable[int]) -> "BipartiteGraph":
        """Subgraph keeping all sets but only the given elements.

        This is how ``H_p`` is defined in Section 2: keep every set vertex
        and the elements whose hash is at most ``p``.
        """
        keep = set(elements)
        sub = BipartiteGraph(self._num_sets)
        for element in keep:
            for set_id in self._elem_adj.get(element, ()):
                sub.add_edge(set_id, element)
        return sub

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def as_dict(self) -> dict[int, frozenset[int]]:
        """Mapping set id → frozenset of member elements."""
        return {set_id: frozenset(members) for set_id, members in enumerate(self._set_adj)}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return self._num_sets == other._num_sets and self._set_adj == other._set_adj

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BipartiteGraph(num_sets={self._num_sets}, "
            f"num_elements={self.num_elements}, num_edges={self._num_edges})"
        )

    def _check_set_id(self, set_id: int) -> None:
        check_set_id(set_id, self._num_sets)


def run_starts(grouped: np.ndarray) -> np.ndarray:
    """Boolean mask of the rows that begin a run of equal values."""
    starts = np.empty(len(grouped), dtype=bool)
    starts[:1] = True
    np.not_equal(grouped[1:], grouped[:-1], out=starts[1:])
    return starts


def count_distinct(values: np.ndarray) -> int:
    """Number of distinct values in a 1-d column, by a sort and a count of
    :func:`run_starts`.  ``np.unique`` may take a hash path that is many times
    slower on large integer columns."""
    return int(np.count_nonzero(run_starts(np.sort(values))))


def dense_ids(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Each value's rank among the distinct values, and how many there are.

    The inverse and the length of ``np.unique(values, return_inverse=True)``,
    from one unstable sort and :func:`run_starts`: equal values get one id
    whichever order the sort leaves them in.
    """
    order = np.argsort(values)
    new = run_starts(values[order])
    ranks = new.astype(np.intp)  # a bool cumsum is several times slower
    np.cumsum(ranks, out=ranks)
    ranks -= 1
    ids = np.empty_like(ranks)
    ids[order] = ranks
    return ids, int(ranks[-1]) + 1 if len(ranks) else 0


def _runs(grouped: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and stop index of every run of equal values in a sorted column."""
    starts = run_starts(grouped).nonzero()[0]
    stops = np.empty_like(starts)
    stops[:-1] = starts[1:]
    stops[-1:] = len(grouped)
    return starts, stops


def _slices(values: list[int], starts: np.ndarray, stops: np.ndarray) -> Iterator[list[int]]:
    """``values[a:b]`` for every ``(a, b)`` bound pair, lazily.

    The maps run in C, so cutting one group per adjacency set costs no
    Python bytecode per row.
    """
    return map(values.__getitem__, map(slice, starts.tolist(), stops.tolist()))


def first_occurrences(set_ids: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Boolean mask of the first row of each distinct ``(set_id, element)`` pair."""
    order = np.lexsort((set_ids, elements))  # stable: equal pairs keep row order
    pairs_set, pairs_element = set_ids[order], elements[order]
    repeat = (pairs_set[1:] == pairs_set[:-1]) & (pairs_element[1:] == pairs_element[:-1])
    first = np.ones(len(order), dtype=bool)
    first[order[1:][repeat]] = False
    return first


def extend_adjacency(
    adjacency: dict[int, set[int]],
    keys: np.ndarray,
    values: np.ndarray,
    key_ids: list[int],
) -> None:
    """Add ``values[i]`` to ``adjacency[keys[i]]`` for every row, in bulk.

    Equal to a loop over the rows that adds each value to its key's set,
    creating the set on a key's first row, down to iteration order: the
    rows are grouped by key, in row order inside each group, and the
    groups taken in order of each key's first row, so new keys join the
    dict in loop order.  ``key_ids`` is ``keys.tolist()`` (or the shared
    int objects of the same values); the dict is keyed by those objects.
    """
    by_key = np.argsort(keys, kind="stable")
    starts, stops = _runs(keys[by_key])
    appearance = np.argsort(by_key[starts])
    starts, stops = starts[appearance], stops[appearance]
    new_keys = list(map(key_ids.__getitem__, by_key[starts].tolist()))
    chunks = _slices(values[by_key].tolist(), starts, stops)
    if adjacency:
        chunks = list(chunks)
        known = list(map(adjacency.__contains__, new_keys))
        for members, chunk in zip(
            map(adjacency.__getitem__, compress(new_keys, known)), compress(chunks, known)
        ):
            members.update(chunk)
        absent = list(map(operator.not_, known))
        new_keys, chunks = list(compress(new_keys, absent)), compress(chunks, absent)
    adjacency.update(zip(new_keys, map(set, chunks)))


def check_set_id(set_id: int, num_sets: int) -> None:
    """Raise what :meth:`BipartiteGraph.add_edge` raises for a bad set id:
    :class:`TypeError` unless it is an integer (``bool`` excluded), and
    :class:`~repro.errors.InvalidInstanceError` outside ``[0, num_sets)``."""
    if isinstance(set_id, bool):
        raise TypeError("set_id must be an integer, got bool")
    try:
        set_id = operator.index(set_id)
    except TypeError as exc:
        raise TypeError(f"set_id must be an integer, got {type(set_id).__name__}") from exc
    if not 0 <= set_id < num_sets:
        raise InvalidInstanceError(f"set id {set_id} out of range [0, {num_sets})")


def check_set_column(set_ids: np.ndarray, num_sets: int) -> None:
    """Raise the :class:`InvalidInstanceError` an :meth:`BipartiteGraph.add_edge`
    loop over the column would raise at its first set id outside
    ``[0, num_sets)``."""
    if len(set_ids) and (int(set_ids.min()) < 0 or int(set_ids.max()) >= num_sets):
        bad = int(set_ids[(set_ids < 0) | (set_ids >= num_sets)][0])
        raise InvalidInstanceError(f"set id {bad} out of range [0, {num_sets})")


def check_parallel_columns(
    set_ids: np.ndarray, elements: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(set_ids, elements)`` as arrays, or :class:`SpecError` unless they
    are one-dimensional columns of equal length."""
    set_ids, elements = np.asarray(set_ids), np.asarray(elements)
    if set_ids.ndim != 1 or set_ids.shape != elements.shape:
        raise SpecError(
            "set_ids and elements must be parallel 1-d columns, "
            f"got shapes {set_ids.shape} and {elements.shape}"
        )
    return set_ids, elements
