"""The coverage function ``C(S) = |∪_{U ∈ S} U|`` and related helpers.

Besides evaluating coverage and marginal gains, the class keeps a query
counter so experiments that reason about oracle access (Theorem 1.3 /
Appendix A) can measure how many evaluations an algorithm performs.
The module also provides sampled checks of monotonicity and submodularity,
used by the property-based tests: coverage functions are the canonical
example of a monotone submodular function and the sketch must preserve that
structure.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.coverage.bipartite import BipartiteGraph

__all__ = ["CoverageFunction"]


class CoverageFunction:
    """Callable wrapper around a graph's coverage function.

    Parameters
    ----------
    graph:
        The bipartite membership graph.
    normalize:
        When ``True`` the function returns the covered *fraction* of the
        graph's elements instead of the absolute count.
    """

    def __init__(self, graph: BipartiteGraph, *, normalize: bool = False) -> None:
        self._graph = graph
        self._normalize = normalize
        self._queries = 0

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> BipartiteGraph:
        """The underlying bipartite graph."""
        return self._graph

    @property
    def query_count(self) -> int:
        """Number of coverage evaluations performed so far."""
        return self._queries

    def reset_query_count(self) -> None:
        """Reset the evaluation counter."""
        self._queries = 0

    def __call__(self, set_ids: Iterable[int]) -> float:
        """Evaluate ``C(S)`` (or the covered fraction when normalising)."""
        self._queries += 1
        value = self._graph.coverage(set_ids)
        if self._normalize:
            total = self._graph.num_elements
            return value / total if total else 1.0
        return float(value)

    def covered(self, set_ids: Iterable[int]) -> set[int]:
        """The set of covered elements ``Γ(G, S)``."""
        self._queries += 1
        return self._graph.neighbors(set_ids)

    def marginal_gain(self, current: Iterable[int], candidate: int) -> float:
        """``C(current ∪ {candidate}) − C(current)``."""
        current = set(current)
        covered = self._graph.neighbors(current)
        gain = self._graph.marginal_gain(candidate, covered)
        self._queries += 2
        if self._normalize:
            total = self._graph.num_elements
            return gain / total if total else 0.0
        return float(gain)

    # ------------------------------------------------------------------ #
    # structural checks (used by tests)
    # ------------------------------------------------------------------ #
    def check_monotone(
        self, rng: np.random.Generator, trials: int = 50
    ) -> bool:
        """Sampled check that ``A ⊆ B`` implies ``C(A) <= C(B)``."""
        n = self._graph.num_sets
        for _ in range(trials):
            size_b = int(rng.integers(0, n + 1))
            b = set(rng.choice(n, size=size_b, replace=False)) if size_b else set()
            if b:
                size_a = int(rng.integers(0, len(b) + 1))
                a = set(rng.choice(sorted(b), size=size_a, replace=False)) if size_a else set()
            else:
                a = set()
            if self(a) > self(b) + 1e-12:
                return False
        return True

    def check_submodular(
        self, rng: np.random.Generator, trials: int = 50
    ) -> bool:
        """Sampled check of diminishing returns.

        For ``A ⊆ B`` and a set ``x ∉ B`` the marginal gain of ``x`` on ``A``
        must be at least its gain on ``B``.
        """
        n = self._graph.num_sets
        if n < 2:
            return True
        for _ in range(trials):
            x = int(rng.integers(0, n))
            rest = [s for s in range(n) if s != x]
            size_b = int(rng.integers(0, len(rest) + 1))
            b = set(rng.choice(rest, size=size_b, replace=False)) if size_b else set()
            if b:
                size_a = int(rng.integers(0, len(b) + 1))
                a = set(rng.choice(sorted(b), size=size_a, replace=False)) if size_a else set()
            else:
                a = set()
            if self.marginal_gain(a, x) + 1e-12 < self.marginal_gain(b, x):
                return False
        return True

    def greedy_upper_bound(self, k: int) -> float:
        """A trivial upper bound on ``Opt_k``: the sum of the k largest sets."""
        degrees = sorted(
            (self._graph.set_degree(s) for s in self._graph.set_ids()), reverse=True
        )
        bound = float(sum(degrees[:k]))
        if self._normalize:
            total = self._graph.num_elements
            return min(1.0, bound / total) if total else 1.0
        return min(bound, float(self._graph.num_elements))

    def best_singleton(self) -> tuple[int, float]:
        """The single set with the largest coverage and its value."""
        best_set, best_value = 0, -1.0
        for set_id in self._graph.set_ids():
            value = float(self._graph.set_degree(set_id))
            if value > best_value:
                best_set, best_value = set_id, value
        if self._normalize:
            total = self._graph.num_elements
            best_value = best_value / total if total else 1.0
        return best_set, best_value

    def evaluate_many(self, solutions: Sequence[Iterable[int]]) -> list[float]:
        """Evaluate several solutions (convenience for experiment sweeps)."""
        return [self(solution) for solution in solutions]
