"""Swap local search for k-cover.

A simple non-streaming baseline: start from any size-``k`` solution and keep
applying single-swap improvements until none exists.  Local search gives a
``1/2`` guarantee for maximum coverage and, more usefully here, provides an
independent reference point for the benchmark tables (it frequently matches
greedy on benign instances and differs on adversarial ones).

Passing ``kernel=`` (a :class:`repro.coverage.bitset.BitsetCoverage` snapshot
of the same graph) evaluates every base-coverage and candidate-gain query on
packed bit rows: one vectorised :meth:`gains_for` call scores all outside
candidates of a position at once, picking the same first-improving swap the
scalar loop would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.coverage.bipartite import BipartiteGraph, check_set_column
from repro.offline.greedy import greedy_k_cover
from repro.utils.rng import spawn_rng
from repro.utils.validation import check_non_negative_int, check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a hard import
    from repro.coverage.bitset import BitsetCoverage

__all__ = ["LocalSearchResult", "local_search_k_cover"]


@dataclass
class LocalSearchResult:
    """Outcome of a local-search run."""

    selected: list[int]
    coverage: int
    iterations: int
    improved_from: int


def _coverage(graph: BipartiteGraph, solution: Iterable[int]) -> int:
    return graph.coverage(solution)


def local_search_k_cover(
    graph: BipartiteGraph,
    k: int,
    *,
    initial: Sequence[int] | None = None,
    seed: int = 0,
    max_iterations: int = 10_000,
    start_from_greedy: bool = False,
    kernel: "BitsetCoverage | None" = None,
) -> LocalSearchResult:
    """Single-swap local search for k-cover.

    Parameters
    ----------
    graph:
        The instance to optimise on.
    k:
        Solution size.
    initial:
        Optional starting solution; defaults to a random size-``k`` family
        (or the greedy solution when ``start_from_greedy`` is true).
    seed:
        Seed for the random initial solution.
    max_iterations:
        Hard cap on the number of improving swaps applied.
    kernel:
        Optional packed-bitset snapshot of ``graph``; swap evaluation then
        runs vectorised on its bit rows.
    """
    check_positive_int(k, "k")
    check_non_negative_int(max_iterations, "max_iterations")
    n = graph.num_sets
    k = min(k, n)
    if initial is not None:
        current = list(dict.fromkeys(int(s) for s in initial))[:k]
        check_set_column(np.asarray(current), n)
    elif start_from_greedy:
        current = greedy_k_cover(graph, k, kernel=kernel).selected
    else:
        rng = spawn_rng(seed, "local-search-init")
        current = list(rng.choice(n, size=k, replace=False))
    # Pad with arbitrary unused sets if the initial solution is short.
    unused = [s for s in range(n) if s not in set(current)]
    while len(current) < k and unused:
        current.append(unused.pop())

    start_value = kernel.coverage(current) if kernel is not None else _coverage(graph, current)
    value = start_value
    iterations = 0
    improved = True
    while improved and iterations < max_iterations:
        improved = False
        current_set = set(current)
        outside = [s for s in range(n) if s not in current_set]
        for position, removed in enumerate(list(current)):
            base = set(current) - {removed}
            if kernel is not None:
                base_bits = kernel.union_bits(np.fromiter(base, dtype=np.intp, count=len(base)))
                base_value = kernel.count_bits(base_bits)
                candidates = np.asarray(outside, dtype=np.intp)
                gains = kernel.gains_for(candidates, base_bits)
                improving = np.flatnonzero(base_value + gains > value)
                if improving.size:
                    index = int(improving[0])
                    current[position] = outside[index]
                    value = base_value + int(gains[index])
                    iterations += 1
                    improved = True
            else:
                base_covered = graph.neighbors(base)
                base_value = len(base_covered)
                for candidate in outside:
                    gain = len(graph.elements_of(candidate) - base_covered)
                    if base_value + gain > value:
                        current[position] = candidate
                        value = base_value + gain
                        iterations += 1
                        improved = True
                        break
            if improved:
                break
    return LocalSearchResult(
        selected=current,
        coverage=value,
        iterations=iterations,
        improved_from=start_value,
    )
