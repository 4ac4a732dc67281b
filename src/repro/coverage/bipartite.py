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
    "first_occurrences",
    "run_starts",
]


class BipartiteGraph:
    """Adjacency structure between ``num_sets`` sets and integer elements.

    The structure is mutable (edges can be added and elements removed) so the
    same class backs both full input instances and the paper's sketches,
    which are themselves subgraphs with some elements and edges discarded.

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
    """

    __slots__ = ("_num_sets", "_set_adj", "_elem_adj", "_num_edges")

    def __init__(self, num_sets: int) -> None:
        check_positive_int(num_sets, "num_sets")
        self._num_sets = num_sets
        self._set_adj: list[set[int]] = [set() for _ in range(num_sets)]
        self._elem_adj: dict[int, set[int]] = {}
        self._num_edges = 0

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

        The set-major twin of :meth:`to_columns`, filled the same way by
        C-level iteration over the adjacency.
        """
        degrees = np.fromiter(map(len, self._set_adj), dtype=np.intp, count=self._num_sets)
        elements = np.fromiter(
            chain.from_iterable(self._set_adj), dtype=np.uint64, count=self._num_edges
        )
        return np.repeat(np.arange(self._num_sets, dtype=np.uint64), degrees), elements

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
        # Element side: the same grouping by element, with the groups taken
        # in order of each element's first row, so new elements join the
        # dict in the order an add_edge loop would insert them.
        by_element = np.argsort(elements, kind="stable")
        grouped = elements[by_element]
        starts, stops = _runs(grouped)
        appearance = np.argsort(by_element[starts])
        starts, stops = starts[appearance], stops[appearance]
        keys = list(map(element_ids.__getitem__, by_element[starts].tolist()))
        chunks = _slices(set_ids[by_element].tolist(), starts, stops)
        if self._elem_adj:
            chunks = list(chunks)
            known = list(map(self._elem_adj.__contains__, keys))
            for members, chunk in zip(
                map(self._elem_adj.__getitem__, compress(keys, known)),
                compress(chunks, known),
            ):
                members.update(chunk)
            absent = list(map(operator.not_, known))
            keys, chunks = list(compress(keys, absent)), compress(chunks, absent)
        self._elem_adj.update(zip(keys, map(set, chunks)))

        if added == rows:
            return np.ones(rows, dtype=bool)
        new = first_occurrences(set_ids, elements)
        return new if stored is None else new & ~stored

    def has_edges(self, set_ids: np.ndarray, elements: np.ndarray) -> np.ndarray:
        """Boolean mask of the ``(set_id, element)`` rows stored in the graph.

        The set ids must be in range: the probe is not validated.
        """
        return self._stored(np.asarray(set_ids).tolist(), np.asarray(elements).tolist())

    def _stored(self, set_ids: list[int], elements: list[int]) -> np.ndarray:
        members = map(self._set_adj.__getitem__, set_ids)
        return np.fromiter(
            map(operator.contains, members, elements), dtype=bool, count=len(set_ids)
        )

    def remove_element(self, element: int) -> int:
        """Remove an element vertex and all its edges; return #edges removed."""
        owners = self._elem_adj.pop(element, None)
        if owners is None:
            return 0
        for set_id in owners:
            self._set_adj[set_id].discard(element)
        removed = len(owners)
        self._num_edges -= removed
        return removed

    def remove_edge(self, set_id: int, element: int) -> bool:
        """Remove one membership edge; returns ``True`` if it was present."""
        self._check_set_id(set_id)
        members = self._set_adj[set_id]
        if element not in members:
            return False
        members.discard(element)
        owners = self._elem_adj[element]
        owners.discard(set_id)
        if not owners:
            del self._elem_adj[element]
        self._num_edges -= 1
        return True

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
        """``|Γ(G, S)|``: the coverage value of a subfamily of sets."""
        return len(self.neighbors(set_ids))

    def coverage_fraction(self, set_ids: Iterable[int]) -> float:
        """Fraction of the current elements covered by ``set_ids``."""
        total = self.num_elements
        if total == 0:
            return 1.0
        return self.coverage(set_ids) / total

    def uncovered_elements(self, set_ids: Iterable[int]) -> set[int]:
        """Elements not covered by the given sets."""
        covered = self.neighbors(set_ids)
        return {element for element in self._elem_adj if element not in covered}

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

    def without_elements(self, elements: Iterable[int]) -> "BipartiteGraph":
        """Subgraph with the given elements removed (residual instance).

        Algorithm 6 peels covered elements off between passes; this helper
        builds the residual graph ``G_{i+1}``.
        """
        drop = set(elements)
        sub = BipartiteGraph(self._num_sets)
        for element, owners in self._elem_adj.items():
            if element in drop:
                continue
            for set_id in owners:
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
        if isinstance(set_id, bool):
            raise TypeError("set_id must be an integer, got bool")
        try:
            set_id = operator.index(set_id)
        except TypeError as exc:
            raise TypeError(
                f"set_id must be an integer, got {type(set_id).__name__}"
            ) from exc
        if not 0 <= set_id < self._num_sets:
            raise InvalidInstanceError(
                f"set id {set_id} out of range [0, {self._num_sets})"
            )


def run_starts(grouped: np.ndarray) -> np.ndarray:
    """Boolean mask of the rows that begin a run of equal values."""
    starts = np.empty(len(grouped), dtype=bool)
    starts[:1] = True
    np.not_equal(grouped[1:], grouped[:-1], out=starts[1:])
    return starts


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
