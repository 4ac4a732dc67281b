"""Hash families mapping elements to ``[0, 1)``.

The sketch of Section 2 relies on a hash function ``h`` that "uniformly and
independently maps E to [0, 1]".  Truly independent hashing over an unknown
universe is not implementable with small space, so we provide two practical
families with deterministic, seed-controlled behaviour:

* :class:`UniformHash` — SplitMix64 finalisation of the element id; fast,
  stateless, and empirically uniform (the default everywhere).
* :class:`TabulationHash` — simple tabulation hashing (Zobrist tables over
  the element's bytes), which is 3-independent and known to behave like a
  fully random function for many sampling applications.

Both return floats in ``[0, 1)`` and expose ``rank`` (the raw 64-bit value)
for exact tie-breaking where float precision would be a concern.  Both also
expose vectorised ``rank_many`` / ``value_many`` over whole ``uint64`` arrays
(bit-for-bit identical to the scalar forms); ``value_many`` is part of the
:class:`HashFamily` protocol, because the batched streaming path hashes an
entire event batch with it in a few array operations.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.utils.rng import MASK64, SplitMix64, mix64, mix64_array

__all__ = ["HashFamily", "UniformHash", "TabulationHash", "make_hash"]

_INV_2_64 = 1.0 / float(1 << 64)


@runtime_checkable
class HashFamily(Protocol):
    """Protocol for element hash functions used by the sketches.

    ``value_many`` is required: the streaming sketch builder, the ℓ0 oracle
    and the sampling baseline rank every batch with one call to it, and
    :class:`~repro.core.streaming_sketch.StreamingSketchBuilder` rejects a
    family without it when it is constructed.  It must be bit-identical to
    ``value`` per element.
    """

    def value(self, element: int) -> float:
        """Hash of the element as a float in ``[0, 1)``."""

    def rank(self, element: int) -> int:
        """Hash of the element as an integer in ``[0, 2^64)``."""

    def value_many(self, elements: np.ndarray) -> np.ndarray:
        """:meth:`value` of every element of a ``uint64`` array, as ``float64``."""


class UniformHash:
    """SplitMix64-based hash of integer element ids to ``[0, 1)``.

    Parameters
    ----------
    seed:
        Selects the hash function from the family; two different seeds give
        (empirically) independent functions.
    """

    __slots__ = ("seed",)

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    def rank(self, element: int) -> int:
        """64-bit hash rank of an element (deterministic in element, seed)."""
        return mix64(int(element), seed=self.seed)

    def value(self, element: int) -> float:
        """Hash of the element as a float in ``[0, 1)``."""
        return self.rank(element) * _INV_2_64

    def rank_many(self, elements: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`rank` over a ``uint64`` array of element ids."""
        return mix64_array(np.asarray(elements, dtype=np.uint64), seed=self.seed)

    def value_many(self, elements: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`value`: ``float64`` array bit-identical to scalar."""
        return self.rank_many(elements).astype(np.float64) * _INV_2_64

    def __call__(self, element: int) -> float:
        return self.value(element)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UniformHash(seed={self.seed})"


class TabulationHash:
    """Simple tabulation hashing of 64-bit element ids.

    The element id is split into 8 bytes; each byte indexes a table of random
    64-bit words (derived deterministically from the seed) and the words are
    XOR-ed together.  Simple tabulation is 3-independent and behaves like a
    truly random hash function for min-wise sampling and distinct counting,
    which is what the sketches need.
    """

    __slots__ = ("seed", "_tables", "_table_array")

    _NUM_TABLES = 8
    _TABLE_SIZE = 256

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        generator = SplitMix64(state=mix64(self.seed, seed=0x7AB17A7))
        self._tables = [
            [generator.next_uint64() for _ in range(self._TABLE_SIZE)]
            for _ in range(self._NUM_TABLES)
        ]
        self._table_array = np.array(self._tables, dtype=np.uint64)

    def rank(self, element: int) -> int:
        """64-bit hash rank of an element."""
        key = int(element) & MASK64
        out = 0
        for table_index in range(self._NUM_TABLES):
            byte = (key >> (8 * table_index)) & 0xFF
            out ^= self._tables[table_index][byte]
        return out

    def value(self, element: int) -> float:
        """Hash of the element as a float in ``[0, 1)``."""
        return self.rank(element) * _INV_2_64

    def rank_many(self, elements: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`rank`: per-byte table lookups over the array."""
        key = np.asarray(elements, dtype=np.uint64)
        out = np.zeros_like(key)
        for table_index in range(self._NUM_TABLES):
            byte = (key >> np.uint64(8 * table_index)) & np.uint64(0xFF)
            out ^= self._table_array[table_index][byte.astype(np.intp)]
        return out

    def value_many(self, elements: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`value`: ``float64`` array bit-identical to scalar."""
        return self.rank_many(elements).astype(np.float64) * _INV_2_64

    def __call__(self, element: int) -> float:
        return self.value(element)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TabulationHash(seed={self.seed})"


def make_hash(kind: str = "uniform", seed: int = 0) -> HashFamily:
    """Factory for the hash families by name (``"uniform"`` or ``"tabulation"``)."""
    if kind == "uniform":
        return UniformHash(seed)
    if kind == "tabulation":
        return TabulationHash(seed)
    raise ValueError(f"unknown hash family {kind!r}; expected 'uniform' or 'tabulation'")
