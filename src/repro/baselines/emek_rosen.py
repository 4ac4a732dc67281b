"""Prior-work semi-streaming set cover with outliers (set-arrival, O~(m) space).

Table 1's "Set cover w. outliers [19, 13]" row refers to the Emek–Rosén and
Chakrabarti–Wirth line of work: ``p``-pass set-arrival algorithms using
``O~(m)`` space with approximation ``O(min(n^{1/(p+1)}, e^{-1/p}))`` — note
the space depends on the ground set and the ratio degrades as the number of
passes shrinks, both of which the paper's single-pass ``O~_λ(n)`` algorithm
improves on.

Implementation note
-------------------
We implement the progressive-thresholding scheme that underlies both works:
the algorithm keeps the set of still-uncovered elements (``O(m)`` space).  In
pass ``j`` (of ``p``) a set is accepted the moment its marginal coverage on
the uncovered elements is at least ``t_j``, where the thresholds ``t_j``
decrease geometrically from the largest possible gain down to the level at
which the allowed outlier mass is reached.  After the last pass, remaining
uncovered elements beyond the outlier budget are patched greedily from a
per-element witness set remembered during the final pass (also ``O(m)``).
The exact constants of [19]/[13] differ; the *shape* — multi-pass, ``O~(m)``
space, ratio degrading with fewer passes — is what the benchmark compares.
"""

from __future__ import annotations

import math

from repro.baselines.threshold_arrival import ThresholdSetArrivalCover
from repro.utils.validation import check_fraction

__all__ = ["ThresholdPartialSetCover"]


class ThresholdPartialSetCover(ThresholdSetArrivalCover):
    """Multi-pass threshold-greedy set cover with outliers (set-arrival)."""

    def __init__(
        self,
        num_elements_hint: int,
        outlier_fraction: float,
        passes: int = 3,
    ) -> None:
        super().__init__(num_elements_hint, passes)
        check_fraction(outlier_fraction, "outlier_fraction")
        self.name = "threshold-partial-cover"
        self.outlier_fraction = outlier_fraction
        self._done = False

    # ------------------------------------------------------------------ #
    # thresholds
    # ------------------------------------------------------------------ #
    def _threshold(self, pass_index: int) -> float:
        """Geometrically decreasing acceptance threshold for each pass."""
        top = float(max(1, self.num_elements_hint))
        # Decrease from m down to 1 over `passes` steps.
        ratio = top ** (1.0 / max(1, self.passes))
        return max(1.0, top / (ratio ** (pass_index + 1)))

    def _acceptance_threshold(self) -> float:
        """This pass's step of the schedule; the final pass still accepts."""
        return self._threshold(self._pass_index)

    def _allowed_outliers(self) -> int:
        universe = len(self._universe) if self._universe else self.num_elements_hint
        return int(math.floor(self.outlier_fraction * universe))

    # ------------------------------------------------------------------ #
    # StreamingAlgorithm protocol
    # ------------------------------------------------------------------ #
    def finish_pass(self, pass_index: int) -> None:
        """After the final pass, patch uncovered elements beyond the budget."""
        if pass_index < self.passes - 1:
            return
        uncovered = self._universe - self._covered
        allowed = self._allowed_outliers()
        if len(uncovered) > allowed:
            # Patch greedily by witness multiplicity.
            by_set: dict[int, set[int]] = {}
            for element in uncovered:
                witness = self._witness.get(element)
                if witness is not None:
                    by_set.setdefault(witness, set()).add(element)
            while len(uncovered) > allowed and by_set:
                best_set = max(by_set, key=lambda s: (len(by_set[s] & uncovered), -s))
                gain = by_set.pop(best_set) & uncovered
                if not gain:
                    continue
                self._selected.append(best_set)
                self._covered |= gain
                uncovered -= gain
        self._done = True

    def wants_another_pass(self) -> bool:
        """Continue until the configured number of passes has run."""
        return not self._done and self._pass_index + 1 < self.passes

    # ------------------------------------------------------------------ #
    # extras
    # ------------------------------------------------------------------ #
    def describe(self) -> dict[str, object]:
        """Diagnostics for reports."""
        return {
            "algorithm": self.name,
            "passes": self.passes,
            "outlier_fraction": self.outlier_fraction,
            "selected": len(self._selected),
            "covered_tracked": len(self._covered),
            "space_peak": self.space.peak,
        }
