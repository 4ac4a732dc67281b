"""Independent output checker: every answer is re-verified outside the library.

Coverage is recomputed from the instance's raw edge columns with numpy
(``np.isin`` over the set column, ``np.unique`` over the selected elements)
instead of through :class:`~repro.coverage.bipartite.BipartiteGraph`, and each
answer is held to the paper's guarantee for its problem:

* k-cover (Theorem 3.1): at most ``k`` distinct in-range set ids, none of
  them forbidden, covering at least ``(1 - 1/e - eps)`` of the reference
  value (the planted optimum, or an offline greedy value where no planted
  optimum applies);
* set cover (Theorem 3.4): every coverable element covered, by at most
  ``(1 + eps) ln m`` times the planted cover size sets.

Every check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.coverage.bipartite import BipartiteGraph

__all__ = ["CoverageChecker"]


class CoverageChecker:
    """Re-verifies solutions against the raw ``(set, element)`` edge columns."""

    def __init__(self, set_ids: np.ndarray, elements: np.ndarray, num_sets: int) -> None:
        self.set_ids = np.asarray(set_ids, dtype=np.int64)
        self.elements = np.asarray(elements, dtype=np.int64)
        self.num_sets = int(num_sets)
        self.coverable = int(len(np.unique(self.elements)))
        self._coverage: dict[tuple[int, ...], int] = {}

    @classmethod
    def from_graph(cls, graph: BipartiteGraph) -> "CoverageChecker":
        """Checker over a graph's edges, read once into two integer columns."""
        edges = list(graph.edges())
        return cls(
            np.fromiter((s for s, _ in edges), dtype=np.int64, count=len(edges)),
            np.fromiter((e for _, e in edges), dtype=np.int64, count=len(edges)),
            graph.num_sets,
        )

    def coverage(self, solution: Iterable[int]) -> int:
        """Number of distinct elements the given sets cover (memoised)."""
        key = tuple(sorted({int(s) for s in solution}))
        if key not in self._coverage:
            chosen = np.isin(self.set_ids, np.asarray(key, dtype=np.int64))
            self._coverage[key] = int(len(np.unique(self.elements[chosen])))
        return self._coverage[key]

    def check_ids(self, solution: Sequence[int], limit: int | None = None) -> list[str]:
        """Distinct, in-range set ids, at most ``limit`` of them."""
        ids = [int(s) for s in solution]
        failures = []
        if len(set(ids)) != len(ids):
            failures.append(f"solution repeats a set id: {ids}")
        if any(not 0 <= s < self.num_sets for s in ids):
            failures.append(f"solution has a set id outside [0, {self.num_sets})")
        if limit is not None and len(ids) > limit:
            failures.append(f"solution has {len(ids)} sets, more than k={limit}")
        return failures

    def check_coverage(self, solution: Sequence[int], reported: int) -> list[str]:
        """The reported coverage equals the numpy recomputation."""
        actual = self.coverage(solution)
        if actual != reported:
            return [f"reported coverage {reported} != recomputed {actual}"]
        return []

    def check_kcover(
        self,
        solution: Sequence[int],
        reported: int,
        *,
        k: int,
        reference: float,
        epsilon: float,
        forbidden: Iterable[int] = (),
    ) -> list[str]:
        """Theorem 3.1: a valid k-cover within ``1 - 1/e - eps`` of ``reference``."""
        failures = self.check_ids(solution, limit=k)
        failures += self.check_coverage(solution, reported)
        blocked = set(forbidden) & {int(s) for s in solution}
        if blocked:
            failures.append(f"solution selects forbidden sets {sorted(blocked)}")
        bound = (1.0 - 1.0 / math.e - epsilon) * reference
        if reported < bound:
            failures.append(
                f"coverage {reported} < (1-1/e-{epsilon}) x {reference} = {bound:.1f}"
            )
        return failures

    def check_setcover(
        self,
        solution: Sequence[int],
        reported: int,
        *,
        cover_size: int,
        epsilon: float,
    ) -> list[str]:
        """Theorem 3.4: a full cover with at most ``(1+eps) ln m`` x optimum sets."""
        failures = self.check_ids(solution)
        failures += self.check_coverage(solution, reported)
        if reported != self.coverable:
            failures.append(
                f"cover leaves {self.coverable - reported} of {self.coverable} "
                "coverable elements uncovered"
            )
        limit = (1.0 + epsilon) * math.log(max(2, self.coverable)) * cover_size
        if len(solution) > limit:
            failures.append(
                f"{len(solution)} sets > (1+{epsilon}) ln m x {cover_size} = {limit:.1f}"
            )
        return failures
