"""ℓ0 (distinct-count) sketches and the Appendix D baseline.

Appendix D recalls that one can maintain, per set, a small mergeable sketch
estimating the number of distinct elements (ℓ0) of any union of sets within
``1 ± ε`` — and that turning this into a k-cover algorithm the obvious way
costs ``O~(nk)`` space (because the failure probability has to be divided
among all ``C(n, k)`` candidate solutions), whereas the paper's sketch needs
only ``O~(n)`` (Theorem D.2 vs. Theorem 3.1).

We implement the classic K-Minimum-Values (KMV / bottom-k) distinct counter:

* mergeable (union of two sketches = the k smallest of the merged hash set),
* unbiased estimator ``(size − 1) / v_size`` where ``v_size`` is the largest
  retained hash value,
* relative error ``O(1/sqrt(size))``, so ``size = O(1/ε²)`` gives ``1 ± ε``.

:class:`L0CoverageOracle` keeps one KMV per set, is built from an edge
stream, and estimates the coverage of any family by merging the per-set
sketches, exactly the construction Appendix D describes.
:func:`l0_exhaustive_k_cover` and :func:`l0_greedy_k_cover` are the two ways
of consuming it (the appendix's exponential-time enumeration, and the
practical greedy used by the benchmark).
"""

from __future__ import annotations

import heapq
import math
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from repro.core.hashing import HashFamily, UniformHash
from repro.errors import InvalidInstanceError
from repro.streaming.batches import EventBatch
from repro.streaming.events import EdgeArrival
from repro.streaming.space import SpaceMeter
from repro.utils.validation import check_open_unit, check_positive_int

__all__ = [
    "KMVSketch",
    "kmv_size_for_epsilon",
    "L0CoverageOracle",
    "l0_exhaustive_k_cover",
    "l0_greedy_k_cover",
]


def kmv_size_for_epsilon(epsilon: float, confidence: float = 4.0) -> int:
    """Sketch size giving relative error ~ε: ``ceil(confidence / ε²)``."""
    check_open_unit(epsilon, "epsilon")
    return max(8, math.ceil(confidence / (epsilon * epsilon)))


class KMVSketch:
    """Bottom-k (K-Minimum-Values) distinct counting sketch.

    Stores the ``capacity`` smallest hash values seen; duplicates are
    ignored, so the estimate depends only on the *set* of inserted items.
    """

    __slots__ = ("capacity", "_hash", "_heap", "_members")

    def __init__(self, capacity: int, hash_fn: HashFamily | None = None, *, seed: int = 0) -> None:
        check_positive_int(capacity, "capacity")
        self.capacity = capacity
        self._hash = hash_fn or UniformHash(seed)
        # Max-heap (negated values) of the smallest hash values kept.
        self._heap: list[float] = []
        self._members: set[float] = set()

    def add(self, item: int) -> None:
        """Insert one item (by id)."""
        self.add_hashed(self._hash.value(int(item)))

    def add_hashed(self, value: float) -> None:
        """Insert one already-hashed value in ``[0, 1)``.

        Exposed so batched callers can hash a whole column of items in one
        vectorised call and stream the values in; semantics are identical to
        :meth:`add` on the pre-image.
        """
        if value in self._members:
            return
        if len(self._heap) < self.capacity:
            heapq.heappush(self._heap, -value)
            self._members.add(value)
        elif value < -self._heap[0]:
            dropped = -heapq.heappushpop(self._heap, -value)
            self._members.discard(dropped)
            self._members.add(value)

    def update_many(self, items: Iterable[int]) -> None:
        """Insert many items, hashed in one ``value_many`` call."""
        values = self._hash.value_many(np.asarray(list(items), dtype=np.uint64))
        for value in values.tolist():
            self.add_hashed(value)

    @property
    def size(self) -> int:
        """Number of hash values currently retained (≤ capacity)."""
        return len(self._heap)

    def values(self) -> list[float]:
        """The retained hash values (unsorted)."""
        return [-v for v in self._heap]

    @staticmethod
    def merge_all(sketches: Sequence["KMVSketch"]) -> "KMVSketch":
        """Merge any number of sketches (at least one required)."""
        if not sketches:
            raise ValueError("need at least one sketch to merge")
        capacity = sketches[0].capacity
        hash_fn = sketches[0]._hash
        merged = KMVSketch(capacity, hash_fn)
        values: set[float] = set()
        for sketch in sketches:
            if sketch.capacity != capacity:
                raise ValueError("can only merge sketches with equal capacity")
            values |= set(sketch.values())
        for value in sorted(values)[:capacity]:
            heapq.heappush(merged._heap, -value)
            merged._members.add(value)
        return merged

    def estimate(self) -> float:
        """Estimated number of distinct inserted items."""
        size = len(self._heap)
        if size < self.capacity:
            # Sketch is not full: it has seen every distinct item exactly.
            return float(size)
        kth = -self._heap[0]  # the largest retained (k-th smallest overall)
        if kth <= 0.0:
            return float(size)
        return (self.capacity - 1) / kth


class L0CoverageOracle:
    """One KMV sketch per set: the ``(1 ± ε)``-approximate oracle of Appendix D.

    Space is ``n`` sketches of ``O(1/ε²)`` words; with the
    failure-probability bookkeeping of Theorem D.2 (union bound over the
    ``C(n, k)`` candidate solutions) the required size grows to ``O~(k/ε²)``
    per set — i.e. ``O~(nk)`` overall — which is what
    :func:`capacity_for_union_bound` computes and the benchmark reports.
    """

    def __init__(
        self,
        num_sets: int,
        epsilon: float,
        *,
        capacity: int | None = None,
        seed: int = 0,
        space: SpaceMeter | None = None,
    ) -> None:
        check_positive_int(num_sets, "num_sets")
        check_open_unit(epsilon, "epsilon")
        self.num_sets = num_sets
        self.epsilon = epsilon
        self.capacity = capacity if capacity is not None else kmv_size_for_epsilon(epsilon)
        self.space = space if space is not None else SpaceMeter(unit="words")
        shared_hash = UniformHash(seed)
        self._hash = shared_hash
        self._sketches = [KMVSketch(self.capacity, shared_hash) for _ in range(num_sets)]
        self.queries = 0
        # Charge the fixed sketch arrays up front (capacity words per set).
        self.space.charge(self.capacity * num_sets)

    @staticmethod
    def capacity_for_union_bound(num_sets: int, k: int, epsilon: float) -> int:
        """Per-set sketch size needed to union-bound over all C(n,k) solutions.

        Following Appendix D: the per-query failure probability must be
        ``1/Θ~(C(n,k))``, and the ℓ0 space grows with ``log(1/δ)``, i.e. by a
        factor ``Θ(k log n)``.
        """
        base = kmv_size_for_epsilon(epsilon)
        return base * max(1, k) * max(1, math.ceil(math.log(max(2, num_sets))))

    def add_edge(self, set_id: int, element: int) -> None:
        """Process one membership edge."""
        if not 0 <= set_id < self.num_sets:
            raise InvalidInstanceError(f"set id {set_id} out of range [0, {self.num_sets})")
        self._sketches[set_id].add(element)

    def process(self, event: EdgeArrival) -> None:
        """Process one :class:`EdgeArrival`."""
        self.add_edge(event.set_id, event.element)

    def process_batch(self, batch: EventBatch) -> None:
        """Process a columnar edge batch: one vectorised hash, then scatter.

        Equivalent to processing the batch's edges one at a time — the
        per-set KMV insertions happen in stream order with identical hash
        values; only the hashing is amortised over the whole batch.
        """
        if batch.offsets is not None:
            raise TypeError("L0CoverageOracle consumes edge batches, got a set batch")
        if len(batch) == 0:
            return
        if len(batch.set_ids) and int(batch.set_ids.max()) >= self.num_sets:
            raise InvalidInstanceError(
                f"set id {int(batch.set_ids.max())} out of range [0, {self.num_sets})"
            )
        values = self._hash.value_many(batch.elements)
        sketches = self._sketches
        # Hashing is the vectorised part; the per-set KMV insertions must
        # happen in stream order against mutable per-sketch heaps.
        # repro-lint: disable=hot-path-hygiene -- KMV heap insertion is inherently per-event; hashing above is the batched part
        for set_id, value in zip(batch.set_ids.tolist(), values.tolist()):
            sketches[set_id].add_hashed(value)

    def sketch_of(self, set_id: int) -> KMVSketch:
        """The per-set sketch (read-only use)."""
        return self._sketches[set_id]

    def estimate_union(self, set_ids: Iterable[int]) -> float:
        """Estimate ``C(S)`` by merging the per-set sketches."""
        ids = [int(s) for s in set_ids]
        self.queries += 1
        if not ids:
            return 0.0
        merged = KMVSketch.merge_all([self._sketches[s] for s in ids])
        return merged.estimate()

    def __call__(self, set_ids: Iterable[int]) -> float:
        return self.estimate_union(set_ids)


def l0_exhaustive_k_cover(oracle: L0CoverageOracle, k: int) -> tuple[list[int], float]:
    """Appendix D's exponential-time algorithm: try every size-k family.

    Only sensible for tiny ``n``; the benchmark uses it to confirm the
    ``1 − ε`` quality claim of Theorem D.2 while charging the ``O~(nk)``
    space.
    """
    check_positive_int(k, "k")
    best: tuple[list[int], float] = ([], -1.0)
    for family in combinations(range(oracle.num_sets), min(k, oracle.num_sets)):
        value = oracle.estimate_union(family)
        if value > best[1]:
            best = (list(family), value)
    return best


def l0_greedy_k_cover(oracle: L0CoverageOracle, k: int) -> tuple[list[int], float]:
    """Greedy k-cover over ℓ0 estimates (the practical way to use the oracle)."""
    check_positive_int(k, "k")
    selection: list[int] = []
    current = 0.0
    for _ in range(min(k, oracle.num_sets)):
        best_set, best_value = None, current
        for candidate in range(oracle.num_sets):
            if candidate in selection:
                continue
            value = oracle.estimate_union(selection + [candidate])
            if value > best_value:
                best_set, best_value = candidate, value
        if best_set is None:
            break
        selection.append(best_set)
        current = best_value
    return selection, current
