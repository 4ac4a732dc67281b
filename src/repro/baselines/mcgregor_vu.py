"""McGregor–Vu-style element-sampling streaming k-cover.

Section 1.3.1 notes a simultaneous and independent work (McGregor & Vu,
arXiv:1610.06199) that also achieves a single-pass ``1 − 1/e − ε``
approximation for k-cover in ``O~(n)`` space, by a different route: instead
of a generic sketch with an approximation-preserving guarantee, they analyse
the greedy algorithm directly on a subsampled universe.

Implementation note
-------------------
The core of their approach: subsample elements at rate
``p ≈ c·k·log n / (ε²·OPT)`` and run greedy on the subsample.  Since ``OPT``
is unknown, ``O(log m / ε)`` geometric guesses are maintained in parallel
(each guess owns an independent subsample whose stored edges are capped) and
the final answer is the guess whose subsampled greedy value, rescaled by its
rate, is largest.  This is edge-arrival friendly — the subsample decision
depends only on the element — so the class consumes edge arrivals like the
paper's own algorithm, making the Table 1 comparison apples-to-apples.
"""

from __future__ import annotations

import math

import numpy as np

from repro.coverage.bipartite import BipartiteGraph
from repro.core.hashing import UniformHash
from repro.offline.greedy import greedy_k_cover
from repro.streaming.batches import EventBatch
from repro.streaming.events import EdgeArrival
from repro.streaming.space import SpaceMeter
from repro.utils.validation import check_open_unit, check_positive_int

__all__ = ["McGregorVuKCover"]


class _GuessState:
    """Subsample state for one guess of OPT."""

    __slots__ = ("rate", "graph", "max_edges", "overflowed")

    def __init__(self, rate: float, num_sets: int, max_edges: int) -> None:
        self.rate = rate
        self.graph = BipartiteGraph(num_sets)
        self.max_edges = max_edges
        self.overflowed = False


class McGregorVuKCover:
    """Single-pass element-sampling streaming k-cover (edge-arrival)."""

    def __init__(
        self,
        num_sets: int,
        num_elements: int,
        k: int,
        epsilon: float = 0.2,
        *,
        sample_constant: float = 2.0,
        seed: int = 0,
    ) -> None:
        check_positive_int(num_sets, "num_sets")
        check_positive_int(num_elements, "num_elements")
        check_positive_int(k, "k")
        check_open_unit(epsilon, "epsilon")
        self.name = "mcgregor-vu-sampling"
        self.arrival_model = "edge"
        self.k = k
        self.epsilon = epsilon
        self.num_sets = num_sets
        self.space = SpaceMeter(unit="edges")
        self._hash = UniformHash(seed)

        # Geometric guesses of OPT between k (any solution covers >= k... at
        # least 1 per set picked is not guaranteed, so start at 1) and m.
        base_numerator = sample_constant * k * max(1.0, math.log(max(2, num_sets)))
        per_guess_cap = max(
            num_sets,
            math.ceil(base_numerator / (epsilon * epsilon)) * 4,
        )
        self._guesses: list[_GuessState] = []
        guess_value = max(1.0, float(k))
        while True:
            rate = min(1.0, base_numerator / (epsilon * epsilon * guess_value))
            self._guesses.append(_GuessState(rate, num_sets, per_guess_cap))
            if guess_value >= num_elements:
                break
            guess_value *= 2.0
        self._solution: list[int] | None = None

    # ------------------------------------------------------------------ #
    # StreamingAlgorithm protocol
    # ------------------------------------------------------------------ #
    def start_pass(self, pass_index: int) -> None:
        """Single-pass algorithm."""
        if pass_index > 0:  # pragma: no cover - defensive
            raise RuntimeError("McGregorVuKCover is a single-pass algorithm")

    def process(self, event: EdgeArrival) -> None:
        """Route the edge into every guess whose subsample admits the element."""
        self._route(event.set_id, event.element, self._hash.value(event.element))

    def process_batch(self, batch: EventBatch) -> None:
        """Route a whole columnar edge batch, sampling test vectorised.

        The per-edge sampling test — "is the element's hash below the guess's
        subsample rate?" — is evaluated for the entire batch with one
        ``value_many`` call, and edges whose hash exceeds the largest rate of
        any live guess are dropped wholesale (rates are fixed per guess and
        guesses only leave the live set by overflowing, so the scalar path
        would drop every one of them too).  Survivors go through the scalar
        routing, keeping batched runs byte-identical to the unrolling shim.
        """
        if batch.offsets is not None:
            raise TypeError("McGregorVuKCover consumes edge batches, got a set batch")
        values = self._hash.value_many(batch.elements)
        max_rate = max((s.rate for s in self._guesses if not s.overflowed), default=0.0)
        survivors = np.flatnonzero(values <= max_rate)
        if not len(survivors):
            return
        set_ids = batch.set_ids[survivors].tolist()
        elements = batch.elements[survivors].tolist()
        hashes = values[survivors].tolist()
        for set_id, element, element_hash in zip(set_ids, elements, hashes):
            self._route(set_id, element, element_hash)

    def _route(self, set_id: int, element: int, element_hash: float) -> None:
        """Per-edge admission into every guess (shared scalar logic)."""
        for state in self._guesses:
            if state.overflowed or element_hash > state.rate:
                continue
            if state.graph.num_edges >= state.max_edges:
                state.overflowed = True
                continue
            if state.graph.add_edge(set_id, element):
                self.space.charge(1)

    def finish_pass(self, pass_index: int) -> None:
        """Nothing to finalise."""

    def wants_another_pass(self) -> bool:
        """Always ``False``: single pass."""
        return False

    def result(self) -> list[int]:
        """Greedy on each subsample; return the guess with the best rescaled value."""
        if self._solution is None:
            best_solution: list[int] = []
            best_value = -1.0
            for state in self._guesses:
                if state.graph.num_edges == 0 or state.rate <= 0:
                    continue
                greedy = greedy_k_cover(state.graph, self.k)
                rescaled = greedy.coverage / state.rate
                if rescaled > best_value and not state.overflowed:
                    best_value = rescaled
                    best_solution = greedy.selected
            if not best_solution:
                # Fall back to the densest subsample even if it overflowed.
                usable = [s for s in self._guesses if s.graph.num_edges > 0]
                if usable:
                    state = max(usable, key=lambda s: s.graph.num_edges)
                    best_solution = greedy_k_cover(state.graph, self.k).selected
            self._solution = best_solution
        return self._solution

    # ------------------------------------------------------------------ #
    # extras
    # ------------------------------------------------------------------ #
    def num_guesses(self) -> int:
        """Number of parallel OPT guesses maintained."""
        return len(self._guesses)

    def describe(self) -> dict[str, object]:
        """Diagnostics for reports."""
        return {
            "algorithm": self.name,
            "k": self.k,
            "epsilon": self.epsilon,
            "guesses": len(self._guesses),
            "space_peak": self.space.peak,
        }
