"""Algorithm 6: multi-pass streaming set cover.

Theorem 3.4: for any ``ε ∈ (0, 1]`` and ``r ∈ [1, log m]`` the algorithm
returns a ``(1 + ε) log m``-approximate set cover with probability
``1 − 1/n`` and the total number of edges held in sketches plus the residual
graph ``G_r`` is ``O~(n · m^{3/(2+r)}) ⊆ O~(n · m^{O(1/r)})``.

Structure, following the paper's own implementation note:

* ``r − 1`` iterations; iteration ``i`` runs Algorithm 5
  (:class:`StreamingSetCoverOutliers`) with ``λ = m^{−1/(2+r)}`` on the
  *residual* instance ``G_i`` (the original graph minus the elements already
  covered), adding its selection to the solution.
* Each iteration is realised with **two** streaming passes: one that marks
  the elements covered by the sets chosen so far ("virtually constructing
  G_i"), and one that feeds the uncovered elements' edges into the sketches.
* One extra final pass collects every remaining uncovered element's edges
  into ``G_r`` explicitly, and the classical greedy set cover finishes the
  job offline.

Hence the pass count is ``2(r − 1) + 1``, which the class reports honestly
through the :class:`StreamingRunner`.
"""

from __future__ import annotations

import math
from typing import Iterable, Literal

import numpy as np

from repro.coverage.bipartite import BipartiteGraph
from repro.coverage.bitset import check_coverage_backend, kernel_for
from repro.core.setcover_outliers import StreamingSetCoverOutliers
from repro.offline.greedy import greedy_set_cover
from repro.streaming.batches import EventBatch
from repro.streaming.events import EdgeArrival
from repro.streaming.space import SpaceMeter
from repro.utils.validation import check_open_unit, check_positive_int

__all__ = ["StreamingSetCover", "outlier_rate_for_passes"]

Phase = Literal["mark", "sketch", "collect", "done"]


def outlier_rate_for_passes(num_elements: int, iterations: int) -> float:
    """The per-iteration outlier rate ``λ = m^{−1/(2+r)}`` (clamped to (0, 1/e])."""
    check_positive_int(num_elements, "num_elements")
    check_positive_int(iterations, "iterations")
    lam = float(num_elements) ** (-1.0 / (2.0 + iterations))
    return max(1e-6, min(lam, 1.0 / math.e))


class StreamingSetCover:
    """Multi-pass streaming set cover (Algorithm 6).

    Parameters
    ----------
    num_sets, num_elements:
        Instance dimensions ``n`` and ``m``.
    epsilon:
        Approximation slack; the guarantee is ``(1 + ε) log m``.
    rounds:
        The paper's ``r``; the algorithm performs ``r − 1`` sketch-based
        iterations plus a final exact residual pass.  ``rounds=1`` degenerates
        to buffering the whole input and running plain greedy (1 pass).
    confidence, mode, scale, seed:
        Passed through to the per-iteration Algorithm 5 instances.
    allow_partial:
        When the input family does not cover the ground set, return a maximal
        partial cover instead of raising (useful on noisy workloads).
    coverage_backend:
        Optional packed-bitset kernel backend, threaded into every
        iteration's Algorithm 5 instance (each guess's greedy runs on a
        kernel of its sketch) and into the final residual greedy.
    forbidden:
        Set ids excluded from selection in every iteration's Algorithm 5
        check and in the final residual greedy.  The stream passes are
        unaffected.  A nonempty exclusion usually needs ``allow_partial``
        (the remaining family may not cover the ground set).
    """

    def __init__(
        self,
        num_sets: int,
        num_elements: int,
        epsilon: float = 0.3,
        rounds: int = 3,
        *,
        confidence: float = 1.0,
        mode: str = "scaled",
        scale: float = 1.0,
        seed: int = 0,
        max_guesses: int | None = None,
        allow_partial: bool = True,
        coverage_backend: str | None = None,
        forbidden: Iterable[int] = (),
    ) -> None:
        check_positive_int(num_sets, "num_sets")
        check_positive_int(num_elements, "num_elements")
        check_open_unit(epsilon, "epsilon")
        check_positive_int(rounds, "rounds")
        check_coverage_backend(coverage_backend)
        if max_guesses is not None:
            check_positive_int(max_guesses, "max_guesses")
        self.name = "bateni-sketch-setcover"
        self.arrival_model = "edge"
        self.num_sets = num_sets
        self.num_elements = num_elements
        self.epsilon = epsilon
        self.rounds = rounds
        self.confidence = confidence
        self.mode = mode
        self.scale = scale
        self.seed = seed
        self.max_guesses = max_guesses
        self.allow_partial = allow_partial
        self.coverage_backend = coverage_backend
        self.forbidden = frozenset(int(s) for s in forbidden)
        self.outlier_rate = outlier_rate_for_passes(num_elements, rounds)
        self.space = SpaceMeter(unit="edges")

        self._covered: set[int] = set()
        self._solution: list[int] = []
        # The covered elements as a column, for the batched sketch and
        # collect passes (which never change them); set by start_pass.
        self._covered_ids = np.empty(0, dtype=np.uint64)
        # The chosen sets as a mask over the set ids, plus a last slot, never
        # set, that both mark passes map every out-of-range id to.
        self._chosen_mask = np.zeros(num_sets + 1, dtype=bool)
        self._phases = self._build_phase_plan()
        self._phase_index = 0
        self._current_outliers: StreamingSetCoverOutliers | None = None
        self._residual: BipartiteGraph | None = None
        self._finalized = False

    # ------------------------------------------------------------------ #
    # phase plan
    # ------------------------------------------------------------------ #
    def _build_phase_plan(self) -> list[tuple[Phase, int]]:
        """The sequence of streaming passes the algorithm will take."""
        if self.rounds == 1:
            return [("collect", 1)]
        plan: list[tuple[Phase, int]] = []
        for iteration in range(1, self.rounds):
            if iteration > 1:
                plan.append(("mark", iteration))
            plan.append(("sketch", iteration))
        plan.append(("mark", self.rounds))
        plan.append(("collect", self.rounds))
        return plan

    @property
    def planned_passes(self) -> int:
        """Total number of streaming passes the phase plan will take."""
        return len(self._phases)

    def current_phase(self) -> tuple[Phase, int]:
        """The phase the next/ongoing pass belongs to."""
        if self._phase_index < len(self._phases):
            return self._phases[self._phase_index]
        return ("done", self.rounds)

    # ------------------------------------------------------------------ #
    # StreamingAlgorithm protocol
    # ------------------------------------------------------------------ #
    def start_pass(self, pass_index: int) -> None:
        """Prepare the state needed by the upcoming pass."""
        phase, iteration = self.current_phase()
        if phase in ("sketch", "collect"):
            self._covered_ids = np.fromiter(
                self._covered, dtype=np.uint64, count=len(self._covered)
            )
        if phase == "sketch":
            self._current_outliers = StreamingSetCoverOutliers(
                self.num_sets,
                self.num_elements,
                self.outlier_rate,
                self.epsilon,
                confidence=self.confidence * max(1, self.rounds - 1),
                mode=self.mode,
                scale=self.scale,
                seed=self.seed + 7919 * iteration,
                max_guesses=self.max_guesses,
                coverage_backend=self.coverage_backend,
                forbidden=self.forbidden,
            )
        elif phase == "collect":
            self._residual = BipartiteGraph(self.num_sets)

    def process(self, event: EdgeArrival) -> None:
        """Route one edge according to the current phase."""
        phase, _ = self.current_phase()
        element_covered = event.element in self._covered
        if phase == "mark":
            set_id = event.set_id
            slot = set_id if 0 <= set_id < self.num_sets else self.num_sets
            if not element_covered and self._chosen_mask[slot]:
                self._covered.add(event.element)
        elif phase == "sketch":
            if not element_covered:
                assert self._current_outliers is not None
                self._current_outliers.process(event)
        elif phase == "collect":
            if not element_covered:
                assert self._residual is not None
                if self._residual.add_edge(event.set_id, event.element):
                    self.space.charge(1)

    def process_batch(self, batch: EventBatch) -> None:
        """Route one columnar edge batch according to the current phase.

        Each phase is array work equal to :meth:`process` over the batch's
        edges: the mark pass adds the elements of rows whose set is chosen,
        in row order; the sketch pass hands the rows of uncovered elements
        to Algorithm 5 as one sub-batch; the collect pass inserts them into
        the residual graph in one :meth:`BipartiteGraph.add_columns` call.
        """
        if batch.offsets is not None:
            raise TypeError("StreamingSetCover consumes edge batches, got a set batch")
        phase, _ = self.current_phase()
        if phase == "mark":
            slots = np.minimum(batch.set_ids, self.num_sets)
            rows = np.flatnonzero(self._chosen_mask[slots])
            self._covered.update(batch.elements[rows].tolist())
            return
        if phase not in ("sketch", "collect"):
            return
        rows = np.flatnonzero(~np.isin(batch.elements, self._covered_ids))
        if not len(rows):
            return
        uncovered = batch if len(rows) == len(batch) else batch.take(rows)
        if phase == "sketch":
            assert self._current_outliers is not None
            self._current_outliers.process_batch(uncovered)
        else:
            assert self._residual is not None
            added = self._residual.add_columns(uncovered.set_ids, uncovered.elements)
            self.space.charge(int(added.sum()))

    def finish_pass(self, pass_index: int) -> None:
        """Close the current phase; solve when a sketch/collect pass ends."""
        phase, _ = self.current_phase()
        if phase == "sketch":
            assert self._current_outliers is not None
            selection = self._current_outliers.result()
            # Record this iteration's sketch space in the shared meter: the
            # peak contributes to the algorithm's peak, and the sketches are
            # then discarded (only the selection is carried forward).
            iteration_peak = self._current_outliers.space.peak
            self.space.charge(iteration_peak)
            self.space.release(iteration_peak)
            self._extend_solution(selection)
            self._current_outliers = None
        elif phase == "collect":
            assert self._residual is not None
            result = greedy_set_cover(
                self._residual,
                allow_partial=self.allow_partial,
                forbidden=self.forbidden,
                kernel=kernel_for(self._residual, self.coverage_backend),
            )
            self._extend_solution(result.selected)
            self._finalized = True
        self._phase_index += 1

    def wants_another_pass(self) -> bool:
        """More passes are needed until the phase plan is exhausted."""
        return self._phase_index < len(self._phases)

    def result(self) -> list[int]:
        """The accumulated solution (chosen set ids, de-duplicated, in order)."""
        return list(self._solution)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _extend_solution(self, selection: list[int]) -> None:
        for set_id in map(int, selection):
            if not self._chosen_mask[set_id]:
                self._solution.append(set_id)
                self._chosen_mask[set_id] = True

    def describe(self) -> dict[str, object]:
        """Diagnostics for reports."""
        return {
            "algorithm": self.name,
            "rounds": self.rounds,
            "planned_passes": self.planned_passes,
            "outlier_rate": self.outlier_rate,
            "epsilon": self.epsilon,
            "solution_size": len(self._solution),
            "covered_marked": len(self._covered),
            "space_peak": self.space.peak,
            "finalized": self._finalized,
        }
