"""Har-Peled et al. (PODS 2016)-style p-pass streaming set cover.

Table 1's "Set cover [25]" row: a ``p``-pass set-arrival algorithm achieving
``O(p · log m)`` approximation in ``O~(n·m^{O(1/p)} + m)`` space.  The paper
achieves ``(1+ε) log m`` in the same space and passes while also handling
edge arrivals — the benchmark quantifies the gap.

Implementation note
-------------------
Like :mod:`repro.baselines.demaine` this is progressive threshold greedy,
but with the threshold schedule tied to a doubling guess of the optimum
cover size ``k̂``: pass ``j`` accepts any arriving set that covers at least
``|U_j| / (2·k̂)`` uncovered elements, where ``U_j`` is the uncovered set at
the start of the pass.  Whenever a pass fails to shrink ``|U|`` by half the
guess ``k̂`` doubles — this is the standard way [25]'s analysis is realised
without an a-priori bound on the optimum.  A final pass patches remaining
elements with witness sets.
"""

from __future__ import annotations

import math

from repro.baselines.threshold_arrival import ThresholdSetArrivalCover
from repro.utils.validation import check_positive_int

__all__ = ["HarPeledSetCover"]


class HarPeledSetCover(ThresholdSetArrivalCover):
    """p-pass guess-and-threshold streaming set cover (set-arrival)."""

    def __init__(self, num_elements_hint: int, passes: int = 4, *, initial_guess: int = 1) -> None:
        super().__init__(num_elements_hint, passes)
        check_positive_int(initial_guess, "initial_guess")
        self.name = "har-peled-setcover"
        self._guess = initial_guess
        self._uncovered_at_pass_start = 0

    # ------------------------------------------------------------------ #
    # StreamingAlgorithm protocol
    # ------------------------------------------------------------------ #
    def start_pass(self, pass_index: int) -> None:
        """Snapshot the uncovered count used for this pass's threshold."""
        super().start_pass(pass_index)
        uncovered = len(self._universe - self._covered)
        self._uncovered_at_pass_start = uncovered if uncovered else self.num_elements_hint

    def _acceptance_threshold(self) -> float:
        """``|U_j| / (2·k̂)``; the final pass accepts nothing, only records witnesses."""
        if self._final_pass():
            return math.inf
        return max(1.0, self._uncovered_at_pass_start / (2.0 * self._guess))

    def finish_pass(self, pass_index: int) -> None:
        """Double the guess when progress stalls; patch leftovers after the last pass."""
        if pass_index < self.passes - 1:
            uncovered = len(self._universe - self._covered)
            if uncovered > self._uncovered_at_pass_start / 2.0:
                self._guess = min(self._guess * 2, max(1, len(self._universe)))
            return
        uncovered = self._universe - self._covered
        by_set: dict[int, set[int]] = {}
        for element in uncovered:
            witness = self._witness.get(element)
            if witness is not None:
                by_set.setdefault(witness, set()).add(element)
        for set_id, elements in sorted(by_set.items(), key=lambda kv: (-len(kv[1]), kv[0])):
            gain = elements - self._covered
            if gain:
                self._selected.append(set_id)
                self._covered |= gain
                self.space.charge(1)

    def wants_another_pass(self) -> bool:
        """Run exactly ``passes`` passes."""
        return self._pass_index + 1 < self.passes

    def describe(self) -> dict[str, object]:
        """Diagnostics for reports."""
        return {
            "algorithm": self.name,
            "passes": self.passes,
            "final_guess": self._guess,
            "selected": len(self._selected),
            "space_peak": self.space.peak,
        }
