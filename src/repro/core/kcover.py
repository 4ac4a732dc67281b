"""Algorithm 3: single-pass streaming k-cover via the ``H_{<=n}`` sketch.

Theorem 3.1: for any ``ε ∈ (0, 1]`` the algorithm below returns a
``(1 − 1/e − ε)``-approximate k-cover solution with probability ``1 − 1/n``
using ``O~(n)`` space, in the edge-arrival model.  The recipe is exactly the
paper's: build ``H_{<=n}(k, ε/12, 2 + log n)`` over the stream, then run the
offline ``1 − 1/e`` greedy **on the sketch** and return its selection.

The class implements the :class:`repro.streaming.runner.StreamingAlgorithm`
protocol so it can be driven by :class:`StreamingRunner` and compared
head-to-head with the baselines.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

from repro.coverage.bipartite import BipartiteGraph
from repro.coverage.bitset import check_coverage_backend, kernel_for
from repro.core.hashing import HashFamily
from repro.core.params import SketchParams
from repro.core.sketch import CoverageSketch
from repro.core.streaming_sketch import StreamingSketchBuilder
from repro.offline.greedy import greedy_k_cover
from repro.streaming.batches import EventBatch
from repro.streaming.events import EdgeArrival
from repro.streaming.space import SpaceMeter
from repro.utils.validation import check_open_unit, check_positive_int

__all__ = ["StreamingKCover", "default_kcover_params"]


def default_kcover_params(
    num_sets: int,
    num_elements: int,
    k: int,
    epsilon: float,
    *,
    mode: str = "scaled",
    scale: float = 1.0,
) -> SketchParams:
    """The sketch parameters Algorithm 3 uses.

    The paper sets ``δ'' = 2 + log n`` and ``ε' = ε/12``; ``mode`` selects
    between the paper's theoretical budgets and the scaled budgets used for
    laptop-scale experiments (see :mod:`repro.core.params`).
    """
    check_positive_int(num_sets, "num_sets")
    check_positive_int(k, "k")
    check_open_unit(epsilon, "epsilon")
    eps_prime = epsilon / 12.0
    delta_prime = 2.0 + math.log(max(2, num_sets))
    if mode == "theoretical":
        return SketchParams.theoretical(
            num_sets, num_elements, k, eps_prime, delta_prime=delta_prime
        )
    if mode == "scaled":
        return SketchParams.scaled(
            num_sets,
            num_elements,
            k,
            eps_prime,
            delta_prime=delta_prime,
            scale=scale,
        )
    raise ValueError(f"unknown mode {mode!r}; expected 'theoretical' or 'scaled'")


class StreamingKCover:
    """Single-pass edge-arrival streaming algorithm for k-cover (Algorithm 3).

    Parameters
    ----------
    num_sets, num_elements:
        Instance dimensions ``n`` and (an upper bound on) ``m``.
    k:
        Number of sets to select.
    epsilon:
        Target accuracy; the approximation guarantee is ``1 − 1/e − ε``.
    params:
        Explicit sketch budgets; overrides ``mode`` / ``scale`` when given.
    mode, scale:
        Parameter mode passed to :func:`default_kcover_params`.
    seed:
        Randomness seed for the sketch hash.
    hash_fn:
        Optional explicit hash family (otherwise derived from ``seed``).
    solver:
        The offline k-cover algorithm run on the sketch.  Defaults to the
        lazy greedy; any α-approximation can be plugged in — Theorem 2.7 is
        exactly the statement that the composition stays ``(α − O(ε))``.
    coverage_backend:
        ``"words"`` (the one packed layout) or ``None``.  The default
        solver then packs a :class:`~repro.coverage.bitset.BitsetCoverage`
        of the *sketch* and the one greedy loop reads its gains from the
        packed rows — identical selections (property-tested), much faster
        on dense sketches.  Ignored when an explicit ``solver`` is given.
    forbidden:
        Set ids the offline phase may not select.  The sketch construction is
        unaffected (the stream pass is oblivious to the constraint — that is
        what lets a serving layer answer many forbidden-set queries against
        one sketch); only the greedy on the sketch skips these ids.
        Unsupported with an explicit ``solver`` (the callable's signature has
        nowhere to carry the constraint).
    """

    def __init__(
        self,
        num_sets: int,
        num_elements: int,
        k: int,
        epsilon: float = 0.2,
        *,
        params: SketchParams | None = None,
        mode: str = "scaled",
        scale: float = 1.0,
        seed: int = 0,
        hash_fn: HashFamily | None = None,
        rank_source: str = "hash",
        solver: Callable[[BipartiteGraph, int], list[int]] | None = None,
        coverage_backend: str | None = None,
        forbidden: Iterable[int] = (),
    ) -> None:
        check_positive_int(k, "k")
        check_open_unit(epsilon, "epsilon")
        check_coverage_backend(coverage_backend)
        self.name = "bateni-sketch-kcover"
        self.arrival_model = "edge"
        self.k = k
        self.epsilon = epsilon
        self.coverage_backend = coverage_backend
        self.forbidden = frozenset(int(s) for s in forbidden)
        if solver is not None and self.forbidden:
            raise ValueError(
                "forbidden= requires the default greedy solver; an explicit "
                "solver callable cannot receive the constraint"
            )
        self.params = params or default_kcover_params(
            num_sets, num_elements, k, epsilon, mode=mode, scale=scale
        )
        self.space = SpaceMeter(unit="edges")
        self._builder = StreamingSketchBuilder(
            self.params,
            hash_fn=hash_fn,
            seed=seed,
            rank_source=rank_source,
            space=self.space,
        )
        self._solver = solver or self._kernel_greedy_solver
        self._finished = False
        self._solution: list[int] | None = None

    def _kernel_greedy_solver(self, graph: BipartiteGraph, k: int) -> list[int]:
        """Default offline phase: greedy on the sketch, kernel-backed on request."""
        return greedy_k_cover(
            graph,
            k,
            forbidden=self.forbidden,
            kernel=kernel_for(graph, self.coverage_backend),
        ).selected

    # ------------------------------------------------------------------ #
    # StreamingAlgorithm protocol
    # ------------------------------------------------------------------ #
    def start_pass(self, pass_index: int) -> None:
        """Single-pass algorithm: only pass 0 is expected."""
        if pass_index > 0:  # pragma: no cover - defensive
            raise RuntimeError("StreamingKCover is a single-pass algorithm")

    def process(self, event: EdgeArrival) -> None:
        """Feed one membership edge into the sketch builder."""
        self._builder.process(event)

    def process_batch(self, batch: EventBatch) -> None:
        """Feed a columnar edge batch into the sketch builder (vectorised)."""
        self._builder.process_batch(batch)

    def finish_pass(self, pass_index: int) -> None:
        """Mark the stream as fully consumed."""
        self._finished = True

    def wants_another_pass(self) -> bool:
        """Always ``False``: Algorithm 3 is single pass."""
        return False

    def result(self) -> list[int]:
        """Run the offline solver on the sketch and return the chosen sets."""
        if self._solution is None:
            sketch = self.sketch()
            self._solution = list(self._solver(sketch.graph, self.k))[: self.k]
        return self._solution

    # ------------------------------------------------------------------ #
    # extras
    # ------------------------------------------------------------------ #
    def sketch(self) -> CoverageSketch:
        """The sketch built from the stream seen so far."""
        return self._builder.sketch()

    def estimated_coverage(self) -> float:
        """Lemma 2.2 estimate of the chosen solution's true coverage."""
        sketch = self.sketch()
        return sketch.estimate_coverage(self.result())

    def describe(self) -> dict[str, object]:
        """Diagnostics merged from the builder and the parameters."""
        info: dict[str, object] = {"algorithm": self.name, "k": self.k, "epsilon": self.epsilon}
        if self.coverage_backend is not None:
            info["coverage_backend"] = self.coverage_backend
        info.update(self.params.describe())
        info.update(self._builder.describe())
        return info
