"""Columnar event batches for the vectorized streaming path.

A scalar stream hands algorithms one :class:`~repro.streaming.events.EdgeArrival`
or :class:`~repro.streaming.events.SetArrival` per Python call, which makes
update throughput interpreter-bound.  :class:`EventBatch` is the columnar
alternative: a contiguous chunk of one pass, stored as numpy ``uint64``
columns so a whole batch can be hashed, threshold-filtered or scattered with
whole-array operations.

Two layouts share the one class, mirroring the two arrival models:

* **edge batches** (``offsets is None``): ``set_ids[i]`` / ``elements[i]``
  are the ``i``-th membership edge of the batch.
* **set batches** (``offsets`` given): ``set_ids[j]`` is the ``j``-th arriving
  set and its member elements are ``elements[offsets[j]:offsets[j+1]]`` (the
  standard CSR encoding).

``len(batch)`` counts *events* (edges or set arrivals), so pass-level event
accounting is layout-independent.  :meth:`EventBatch.iter_events` unrolls a
batch back into the scalar event objects — that is the compatibility shim the
runner uses for algorithms that only implement ``process``, and the reference
semantics every native ``process_batch`` implementation must match.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import SpecError
from repro.streaming.events import EdgeArrival, SetArrival

__all__ = ["DEFAULT_BATCH_SIZE", "EventBatch", "check_batch_size"]

#: Events per batch wherever the caller does not choose (``StreamSpec``,
#: ``StreamingRunner.run``, ``QueryEngine``, the CLI); results are identical
#: at every batch size, only the speed differs.
DEFAULT_BATCH_SIZE = 4096


def check_batch_size(value: Any) -> None:
    """Raise :class:`SpecError` unless ``value`` is an int >= 1 (``None`` included)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise SpecError(
            "batch_size must be a positive integer (columnar batches are the "
            f"only drive mode), got {value!r}"
        )


@dataclass(frozen=True, eq=False)
class EventBatch:
    """A columnar chunk of stream events (see module docstring).

    ``eq=False``: ndarray fields make the generated ``__eq__``/``__hash__``
    raise instead of comparing, so batches fall back to identity semantics.

    Parameters
    ----------
    set_ids:
        ``uint64`` column: one entry per edge (edge layout) or one per
        arriving set (set layout).
    elements:
        ``uint64`` column of element ids; for the set layout, the
        concatenation of every arriving set's members.
    offsets:
        ``None`` for the edge layout; for the set layout, an ``int64`` array
        of length ``len(set_ids) + 1`` with ``offsets[0] == 0`` and
        ``offsets[-1] == len(elements)`` delimiting each set's member run.
    """

    set_ids: np.ndarray
    elements: np.ndarray
    offsets: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "set_ids", np.asarray(self.set_ids, dtype=np.uint64))
        object.__setattr__(self, "elements", np.asarray(self.elements, dtype=np.uint64))
        if self.set_ids.ndim != 1 or self.elements.ndim != 1:
            raise ValueError("set_ids and elements must be one-dimensional arrays")
        if self.offsets is None:
            if len(self.set_ids) != len(self.elements):
                raise ValueError(
                    "edge batch requires parallel columns: "
                    f"{len(self.set_ids)} set ids vs {len(self.elements)} elements"
                )
            return
        offsets = np.asarray(self.offsets, dtype=np.int64)
        object.__setattr__(self, "offsets", offsets)
        if offsets.ndim != 1 or len(offsets) != len(self.set_ids) + 1:
            raise ValueError(
                f"set batch requires len(set_ids) + 1 = {len(self.set_ids) + 1} "
                f"offsets, got {len(offsets)}"
            )
        if len(offsets) and (offsets[0] != 0 or offsets[-1] != len(self.elements)):
            raise ValueError("offsets must start at 0 and end at len(elements)")
        if np.any(np.diff(offsets) < 0):
            raise ValueError("offsets must be non-decreasing")

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]]) -> "EventBatch":
        """Build an edge batch from ``(set_id, element)`` pairs."""
        pairs = list(edges)
        set_ids = np.fromiter((s for s, _ in pairs), dtype=np.uint64, count=len(pairs))
        elements = np.fromiter((e for _, e in pairs), dtype=np.uint64, count=len(pairs))
        return cls(set_ids, elements)

    @classmethod
    def from_sets(cls, sets: Sequence[tuple[int, Sequence[int]]]) -> "EventBatch":
        """Build a set batch from ``(set_id, members)`` pairs."""
        set_ids = np.fromiter((s for s, _ in sets), dtype=np.uint64, count=len(sets))
        lengths = np.fromiter(
            (len(members) for _, members in sets), dtype=np.int64, count=len(sets)
        )
        offsets = np.zeros(len(sets) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        flat = [int(e) for _, members in sets for e in members]
        elements = np.array(flat, dtype=np.uint64)
        return cls(set_ids, elements, offsets)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def kind(self) -> str:
        """``"edge"`` or ``"set"``, matching the arrival models."""
        return "edge" if self.offsets is None else "set"

    def __len__(self) -> int:
        """Number of events (edges, or arriving sets) in the batch."""
        return len(self.set_ids)

    @property
    def num_edges(self) -> int:
        """Number of membership edges carried by the batch."""
        return len(self.elements)

    @cached_property
    def element_ids(self) -> list[int]:
        """The element column as Python ints, made once per batch.

        The scalar events and every sketch that stores the batch's elements
        take these same int objects, so a batch fed to many sketches pays
        for its ints once.
        """
        return self.elements.tolist()

    # ------------------------------------------------------------------ #
    # row selection
    # ------------------------------------------------------------------ #
    def take(self, rows: np.ndarray | Sequence[int]) -> "EventBatch":
        """An edge sub-batch of the given rows, in the given order.

        This is the routing primitive of the distributed map phase: a
        partitioner groups one batch's rows by machine and hands each worker
        ``take(rows)`` — plain numpy fancy indexing, no per-edge tuples.
        Only edge batches support it (a set batch row is a whole CSR run).
        """
        if self.offsets is not None:
            raise TypeError("take() slices edge batches, got a set batch")
        rows = np.asarray(rows, dtype=np.int64)
        return EventBatch(self.set_ids[rows], self.elements[rows])

    # ------------------------------------------------------------------ #
    # scalar compatibility shim
    # ------------------------------------------------------------------ #
    def iter_events(self) -> Iterator[EdgeArrival | SetArrival]:
        """Unroll the batch into scalar events, in stream order.

        This defines the reference semantics of a batch: a native
        ``process_batch`` must be equivalent to feeding these events through
        ``process`` one at a time.
        """
        set_ids = self.set_ids.tolist()
        elements = self.element_ids
        if self.offsets is None:
            for set_id, element in zip(set_ids, elements):
                yield EdgeArrival(set_id, element)
            return
        bounds = self.offsets.tolist()
        for index, set_id in enumerate(set_ids):
            yield SetArrival(
                set_id=set_id, elements=tuple(elements[bounds[index] : bounds[index + 1]])
            )
