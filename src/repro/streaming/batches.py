"""Columnar event batches: the one form streams store and algorithms consume.

:class:`EventBatch` holds stream events as numpy ``uint64`` columns, so a
whole batch can be hashed, threshold-filtered or scattered with whole-array
operations.  A stream (:mod:`repro.streaming.stream`) stores its entire input
as one batch, reorders it once per pass with :meth:`EventBatch.take` and
hands it out cut into chunks by :meth:`EventBatch.chunks`; the map jobs of
the distributed workers chunk their shard columns the same way.

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

Every id column is made by one checked conversion: ``uint64`` arrays pass
without a scan, other integer arrays must be ``>= 0``, Python ints must fit
in ``[0, 2**64)``, and anything else raises
:class:`~repro.errors.InvalidInstanceError` instead of being cast into a
silently different id.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import InvalidInstanceError, SpecError
from repro.streaming.events import EdgeArrival, SetArrival

__all__ = ["DEFAULT_BATCH_SIZE", "EventBatch", "check_batch_size", "id_column"]

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


def id_column(values: Any, what: str) -> np.ndarray:
    """``values`` as a checked ``uint64`` id column (see module docstring).

    ``what`` names the ids in the :class:`~repro.errors.InvalidInstanceError`.
    """
    if isinstance(values, np.ndarray):
        # A plain ndarray view: a memory-mapped column stays mapped, but
        # slices and results skip the np.memmap subclass machinery.
        values = np.asarray(values)
        if values.dtype == np.uint64:
            return values
        if values.dtype.kind in "iu":
            if values.size and values.min() < 0:
                raise InvalidInstanceError(f"{what} must be >= 0, got {values.min()}")
        elif values.size:
            raise InvalidInstanceError(f"{what} must be integers, got dtype {values.dtype}")
        return values.astype(np.uint64)
    try:
        return np.fromiter(map(operator.index, values), dtype=np.uint64)
    except (TypeError, OverflowError) as error:
        raise InvalidInstanceError(
            f"{what} must be integers in [0, 2**64) ({error})"
        ) from error


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
        object.__setattr__(self, "set_ids", id_column(self.set_ids, "set ids"))
        object.__setattr__(self, "elements", id_column(self.elements, "elements"))
        if self.set_ids.ndim != 1 or self.elements.ndim != 1:
            raise SpecError("set_ids and elements must be one-dimensional arrays")
        if self.offsets is None:
            if len(self.set_ids) != len(self.elements):
                raise SpecError(
                    "edge batch requires parallel columns of equal length: "
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
        return cls([s for s, _ in pairs], [e for _, e in pairs])

    @classmethod
    def from_sets(cls, sets: Iterable[tuple[int, Iterable[int]]]) -> "EventBatch":
        """Build a set batch from ``(set_id, members)`` pairs."""
        rows = [(set_id, tuple(members)) for set_id, members in sets]
        lengths = np.array([len(members) for _, members in rows], dtype=np.int64)
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        members = chain.from_iterable(members for _, members in rows)
        return cls([set_id for set_id, _ in rows], members, offsets)

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
    # row selection and chunking
    # ------------------------------------------------------------------ #
    def take(self, rows: np.ndarray | Sequence[int]) -> "EventBatch":
        """The sub-batch of the given rows (events), in the given order.

        A stream reorders its stored batch for a pass with one ``take``, and
        a partitioner hands each machine ``take(rows)`` of one batch — plain
        numpy fancy indexing, no per-edge tuples.  A set-layout row is a
        whole CSR run: the member runs are gathered with one vectorised
        index and the offsets rebuilt from the run lengths.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if self.offsets is None:
            return EventBatch(self.set_ids[rows], self.elements[rows])
        starts = self.offsets[rows]
        lengths = self.offsets[rows + 1] - starts
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        # Output member p of run j comes from starts[j] + (p - offsets[j]).
        gather = np.repeat(starts - offsets[:-1], lengths) + np.arange(offsets[-1])
        return EventBatch(self.set_ids[rows], self.elements[gather], offsets)

    def chunks(self, size: int) -> Iterator["EventBatch"]:
        """The batch cut into consecutive sub-batches of at most ``size`` events.

        Each chunk's columns are views of this batch's; a set-layout chunk
        gets its offsets rebased to start at 0.
        """
        for start in range(0, len(self), size):
            stop = start + size
            if self.offsets is None:
                yield EventBatch(self.set_ids[start:stop], self.elements[start:stop])
                continue
            bounds = self.offsets[start : stop + 1]
            yield EventBatch(
                self.set_ids[start:stop],
                self.elements[bounds[0] : bounds[-1]],
                bounds - bounds[0],
            )

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
