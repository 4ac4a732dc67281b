"""Ensembles of independent sketches.

Section 1.3.2 notes that "all the algorithms presented here construct O~(1)
independent instances of the sketch" — repeating the construction with
independent hash functions and aggregating is how the failure probability is
driven down to ``1/n`` without blowing up any single sketch.  This module
makes that pattern a first-class object:

* :class:`SketchEnsemble` — ``R`` independent :class:`StreamingSketchBuilder`
  instances fed from the same edge stream.  It exposes

  - a **median-of-estimates** coverage estimator (the standard way to turn
    per-sketch ``1 ± ε`` estimates with constant failure probability into a
    high-probability estimate), and
  - a **best-of-R** k-cover solver: run greedy on every replica's columns
    (:meth:`~repro.core.sketch_columns.SketchColumns.greedy_k_cover`) and
    keep the candidate whose *median estimated* coverage is largest, so the
    selection rule itself never touches the original graph.

* :class:`EnsembleKCover` — drop-in replacement for
  :class:`repro.core.kcover.StreamingKCover` that uses an ensemble instead of
  a single sketch (same protocol, single pass, ``R×`` the space).
"""

from __future__ import annotations

import statistics
from typing import Sequence

from repro.coverage.bitset import check_coverage_backend
from repro.core.hashing import UniformHash
from repro.core.params import SketchParams
from repro.core.sketch import CoverageSketch
from repro.core.sketch_columns import SketchColumns
from repro.core.streaming_sketch import BatchGrouping, StreamingSketchBuilder
from repro.parallel import ExecutorBackend, ParallelMapper, as_mapper
from repro.streaming.batches import EventBatch
from repro.streaming.events import EdgeArrival
from repro.streaming.space import SpaceMeter
from repro.utils.rng import derive_seed
from repro.utils.validation import check_positive_int

__all__ = ["SketchEnsemble", "EnsembleKCover"]


def _replica_greedy_job(job: tuple[SketchColumns, int, int, str | None]) -> list[int]:
    """Greedy on one replica's columns (top-level so process pools can ship it)."""
    columns, num_sets, k, coverage_backend = job
    return columns.greedy_k_cover(num_sets, k, coverage_backend=coverage_backend).selected


class SketchEnsemble:
    """``R`` independent sketches of the same stream, with median aggregation.

    Parameters
    ----------
    params:
        Budgets shared by every replica.
    replicas:
        Number of independent sketches ``R`` (the paper's O~(1)).
    seed:
        Master seed; replica ``i`` hashes with an independently derived seed.
    space:
        Optional shared meter; every stored edge of every replica is charged.
    coverage_backend:
        Optional packed-bitset kernel backend; :meth:`best_k_cover` then
        runs each replica's greedy on a kernel of that replica's sketch
        (identical selections, faster on dense sketches).
    executor:
        Executor backend (or prebuilt :class:`~repro.parallel.ParallelMapper`)
        for :meth:`best_k_cover`'s per-replica greedy runs — the replicas are
        independent, exactly the fan-out shape of the distributed map phase.
        ``None`` keeps the serial loop; results are gathered in replica
        order, so every backend returns the same selection.
    max_workers:
        Pool-size cap for the parallel executors.
    """

    def __init__(
        self,
        params: SketchParams,
        replicas: int = 3,
        *,
        seed: int = 0,
        space: SpaceMeter | None = None,
        coverage_backend: str | None = None,
        executor: str | ExecutorBackend | ParallelMapper | None = None,
        max_workers: int | None = None,
    ) -> None:
        check_positive_int(replicas, "replicas")
        check_coverage_backend(coverage_backend)
        self.params = params
        self.replicas = replicas
        self.coverage_backend = coverage_backend
        self.mapper = as_mapper(executor, max_workers)
        self.space = space if space is not None else SpaceMeter(unit="edges")
        self._builders = [
            StreamingSketchBuilder(
                params,
                hash_fn=UniformHash(derive_seed(seed, f"ensemble-replica-{index}")),
                space=self.space,
            )
            for index in range(replicas)
        ]
        self._sketches: list[CoverageSketch] | None = None

    # ------------------------------------------------------------------ #
    # streaming
    # ------------------------------------------------------------------ #
    def add_edge(self, set_id: int, element: int) -> None:
        """Feed one membership edge to every replica."""
        self._sketches = None
        for builder in self._builders:
            builder.add_edge(set_id, element)

    def process(self, event: EdgeArrival) -> None:
        """Feed one :class:`EdgeArrival` to every replica."""
        self.add_edge(event.set_id, event.element)

    def process_batch(self, batch: EventBatch) -> None:
        """Feed a columnar edge batch to every replica, one after another.

        The batch is grouped by element and pair once
        (:class:`BatchGrouping`); each replica ranks only its distinct
        elements with its own hash and admits on its own store, exactly as
        its own :meth:`StreamingSketchBuilder.process_batch` would.  A batch
        the grouping does not cover (a set id out of range) goes to each
        replica's own path.

        Every replica ends as the per-event feed (:meth:`add_edge`) leaves
        it, but the shared space meter records the replicas fed one after
        another: its peak is that of feeding each replica the batch's edges
        in turn, where the per-event feed hands every edge to all of them.
        Once the replicas evict, the two peaks may differ by a few edges.
        """
        self._sketches = None
        grouping = BatchGrouping.of(batch, self.params.num_sets)
        for builder in self._builders:
            builder.process_batch(batch, grouping=grouping)

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #
    def sketches(self) -> list[CoverageSketch]:
        """The current replica sketches (finalised lazily, cached)."""
        if self._sketches is None:
            self._sketches = [builder.sketch() for builder in self._builders]
        return self._sketches

    def estimate_coverage(self, set_ids: Sequence[int]) -> float:
        """Median over replicas of the Lemma 2.2 estimator for ``C(S)``."""
        return statistics.median(
            sketch.estimate_coverage(set_ids) for sketch in self.sketches()
        )

    def estimate_total_elements(self) -> float:
        """Median over replicas of the ground-set-size estimate."""
        return statistics.median(
            sketch.estimate_total_elements() for sketch in self.sketches()
        )

    def best_k_cover(self, k: int) -> tuple[list[int], float]:
        """Best-of-R greedy: pick the replica solution with the largest median estimate.

        The per-replica greedy runs are independent, so they fan out over
        the configured executor; candidates come back in replica order and
        the first maximal median estimate wins, which keeps the selection
        identical across serial, thread and process backends.

        Returns the chosen set ids and their median estimated coverage.
        """
        check_positive_int(k, "k")
        num_sets = self.params.num_sets
        candidates = self.mapper.map(
            _replica_greedy_job,
            [
                (builder.columns(), num_sets, k, self.coverage_backend)
                for builder in self._builders
            ],
        )
        best_solution: list[int] = []
        best_estimate = -1.0
        for candidate in candidates:
            estimate = self.estimate_coverage(candidate)
            if estimate > best_estimate:
                best_solution, best_estimate = candidate, estimate
        return best_solution, best_estimate

    def describe(self) -> dict[str, object]:
        """Diagnostics for reports."""
        sketches = self.sketches()
        return {
            "replicas": self.replicas,
            "total_edges": sum(s.num_edges for s in sketches),
            "space_peak": self.space.peak,
            "thresholds": [s.threshold for s in sketches],
            # What the last fan-out actually ran with — ("serial", 1) after
            # a sandbox fallback — not merely the configured plan.
            "executor": self.mapper.last_execution[0],
        }


class EnsembleKCover:
    """Single-pass k-cover using a best-of-R ensemble of sketches.

    Implements the same streaming protocol as
    :class:`repro.core.kcover.StreamingKCover`; the extra replicas multiply
    the space by ``R`` but reduce the probability that one unlucky hash
    function distorts the outcome — the trade Section 1.3.2 alludes to.
    """

    def __init__(
        self,
        num_sets: int,
        num_elements: int,
        k: int,
        epsilon: float = 0.2,
        *,
        replicas: int = 3,
        params: SketchParams | None = None,
        mode: str = "scaled",
        scale: float = 1.0,
        seed: int = 0,
        coverage_backend: str | None = None,
        executor: str | ExecutorBackend | ParallelMapper | None = None,
        max_workers: int | None = None,
    ) -> None:
        from repro.core.kcover import default_kcover_params

        check_positive_int(k, "k")
        self.name = "bateni-sketch-kcover-ensemble"
        self.arrival_model = "edge"
        self.k = k
        self.epsilon = epsilon
        self.params = params or default_kcover_params(
            num_sets, num_elements, k, epsilon, mode=mode, scale=scale
        )
        self.space = SpaceMeter(unit="edges")
        self.ensemble = SketchEnsemble(
            self.params,
            replicas,
            seed=seed,
            space=self.space,
            coverage_backend=coverage_backend,
            executor=executor,
            max_workers=max_workers,
        )
        self._solution: list[int] | None = None

    def start_pass(self, pass_index: int) -> None:
        """Single-pass algorithm."""
        if pass_index > 0:  # pragma: no cover - defensive
            raise RuntimeError("EnsembleKCover is a single-pass algorithm")

    def process(self, event: EdgeArrival) -> None:
        """Feed one edge to every replica."""
        self.ensemble.process(event)

    def process_batch(self, batch: EventBatch) -> None:
        """Feed a columnar edge batch to every replica."""
        self.ensemble.process_batch(batch)

    def finish_pass(self, pass_index: int) -> None:
        """Nothing to finalise until :meth:`result`."""

    def wants_another_pass(self) -> bool:
        """Always ``False``."""
        return False

    def result(self) -> list[int]:
        """Best-of-R greedy selection."""
        if self._solution is None:
            self._solution, _ = self.ensemble.best_k_cover(self.k)
        return self._solution

    def describe(self) -> dict[str, object]:
        """Diagnostics merged from the ensemble."""
        info: dict[str, object] = {"algorithm": self.name, "k": self.k, "epsilon": self.epsilon}
        info.update(self.ensemble.describe())
        return info
