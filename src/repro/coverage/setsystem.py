"""Label-aware set systems.

:class:`SetSystem` is the user-facing representation of a coverage instance:
a family of named sets over a named ground set.  Internally it interns labels
to integer ids and stores the membership relation in a
:class:`repro.coverage.bipartite.BipartiteGraph`, which is what all the
algorithms operate on.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Mapping

from repro.coverage.bipartite import BipartiteGraph
from repro.errors import InvalidInstanceError

__all__ = ["SetSystem"]


class SetSystem:
    """A family of named sets over a named ground set of elements.

    Example
    -------
    >>> system = SetSystem.from_dict({"a": [1, 2, 3], "b": [3, 4]})
    >>> system.n, system.m, system.num_edges
    (2, 4, 5)
    >>> sorted(system.members("a"))
    [1, 2, 3]
    """

    def __init__(self) -> None:
        self._set_labels: list[Hashable] = []
        self._set_index: dict[Hashable, int] = {}
        self._element_labels: list[Hashable] = []
        self._element_index: dict[Hashable, int] = {}
        self._memberships: list[set[int]] = []

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, mapping: Mapping[Hashable, Iterable[Hashable]]) -> "SetSystem":
        """Build a system from ``{set_label: iterable of element labels}``."""
        system = cls()
        for label, members in mapping.items():
            system.add_set(label, members)
        return system

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[Hashable, Hashable]]) -> "SetSystem":
        """Build a system from (set_label, element_label) pairs."""
        system = cls()
        for set_label, element_label in edges:
            system.add_membership(set_label, element_label)
        return system

    def add_set(self, label: Hashable, members: Iterable[Hashable] = ()) -> int:
        """Add a (possibly empty) set with the given label; return its id.

        Adding an existing label extends that set with the new members.
        """
        set_id = self._intern_set(label)
        for member in members:
            element_id = self._intern_element(member)
            self._memberships[set_id].add(element_id)
        return set_id

    def add_membership(self, set_label: Hashable, element_label: Hashable) -> tuple[int, int]:
        """Add one membership edge by labels; return the (set_id, element_id)."""
        set_id = self._intern_set(set_label)
        element_id = self._intern_element(element_label)
        self._memberships[set_id].add(element_id)
        return set_id, element_id

    def _intern_set(self, label: Hashable) -> int:
        if label in self._set_index:
            return self._set_index[label]
        set_id = len(self._set_labels)
        self._set_labels.append(label)
        self._set_index[label] = set_id
        self._memberships.append(set())
        return set_id

    def _intern_element(self, label: Hashable) -> int:
        if label in self._element_index:
            return self._element_index[label]
        element_id = len(self._element_labels)
        self._element_labels.append(label)
        self._element_index[label] = element_id
        return element_id

    # ------------------------------------------------------------------ #
    # sizes
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of sets (``n`` in the paper)."""
        return len(self._set_labels)

    @property
    def m(self) -> int:
        """Number of distinct elements (``m`` in the paper)."""
        return len(self._element_labels)

    @property
    def num_edges(self) -> int:
        """Total number of membership edges."""
        return sum(len(members) for members in self._memberships)

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def set_id(self, label: Hashable) -> int:
        """Internal id of a set label."""
        try:
            return self._set_index[label]
        except KeyError as exc:
            raise KeyError(f"unknown set label: {label!r}") from exc

    def element_id(self, label: Hashable) -> int:
        """Internal id of an element label."""
        try:
            return self._element_index[label]
        except KeyError as exc:
            raise KeyError(f"unknown element label: {label!r}") from exc

    def set_label(self, set_id: int) -> Hashable:
        """Label of a set id."""
        return self._set_labels[set_id]

    def element_label(self, element_id: int) -> Hashable:
        """Label of an element id."""
        return self._element_labels[element_id]

    def set_labels(self) -> list[Hashable]:
        """All set labels in id order."""
        return list(self._set_labels)

    def element_labels(self) -> list[Hashable]:
        """All element labels in id order."""
        return list(self._element_labels)

    def members(self, set_label: Hashable) -> set[Hashable]:
        """Member element labels of one set (looked up by label)."""
        set_id = self.set_id(set_label)
        return {self._element_labels[e] for e in self._memberships[set_id]}

    def labels_for(self, set_ids: Iterable[int]) -> list[Hashable]:
        """Convert internal set ids back to their labels."""
        return [self._set_labels[set_id] for set_id in set_ids]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over all (set_id, element_id) membership edges."""
        for set_id, members in enumerate(self._memberships):
            for element_id in members:
                yield set_id, element_id

    # ------------------------------------------------------------------ #
    # conversion
    # ------------------------------------------------------------------ #
    def to_graph(self) -> BipartiteGraph:
        """Materialise the membership relation as a :class:`BipartiteGraph`."""
        if self.n == 0:
            raise InvalidInstanceError("a set system needs at least one set")
        graph = BipartiteGraph(self.n)
        for set_id, element_id in self.edges():
            graph.add_edge(set_id, element_id)
        return graph

    def to_dict(self) -> dict[Hashable, set[Hashable]]:
        """Return ``{set_label: set of element labels}``."""
        return {label: self.members(label) for label in self._set_labels}

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SetSystem(n={self.n}, m={self.m}, edges={self.num_edges})"
