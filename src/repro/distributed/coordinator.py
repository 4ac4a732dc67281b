"""Coordinator: merge machine sketches and solve coverage problems on the merge.

The merge rule exploits the structure of ``H_{<=n}``:

1. Every machine used the **same** hash function, so an element's rank is
   global.  A machine's sketch contains, for every element below its local
   threshold, *all* of that element's shard edges (up to the degree cap).
2. The coordinator therefore keeps only elements whose rank is below the
   **minimum** of the machines' thresholds — for those elements the union of
   the shard edges is the element's full (capped) global edge set.
3. The union is then re-capped and re-trimmed to the global edge budget in
   rank order, exactly as the offline Algorithm 1 would, yielding a sketch of
   the *whole* input.  In particular the merged threshold follows Algorithm
   1's convention: the hash of the last **admitted** element when the budget
   truncates the union, the global minimum otherwise.

This is the composability property the companion paper builds its MapReduce
algorithms on; :class:`DistributedKCover` packages it into a two-round
distributed k-cover: round 1 — machines sketch their shards; round 2 — the
coordinator merges and runs the offline greedy on the merged columns
(optionally on a packed coverage kernel, see ``coverage_backend``).

One pipeline
------------
Every entry point of :class:`DistributedKCover` builds one list of picklable
map jobs (:mod:`repro.distributed.worker`), hands it to
:meth:`~repro.parallel.ParallelMapper.map_unordered` and folds each machine
sketch into a :class:`StreamingMergeTree` **as it arrives**; the serial
backend runs the same jobs in-process.  The merge operator is associative
and commutative (the admission pass depends only on the multiset of
surviving ``(rank, element, set)`` rows, not on how they were grouped), so
the binary-counter tree keeps at most ``O(log num_machines)`` sketches
resident for *any* arrival order and produces the byte-identical sketch the
one-shot :func:`merge_machine_sketches` produces (property-tested across
executors, worker counts and adversarial arrival orders).

Columns all the way to the root
-------------------------------
In-memory input is routed once by
:meth:`~repro.distributed.partition.EdgePartitioner.split` into one
:class:`~repro.distributed.worker.MachineShardJob` per machine;
:meth:`DistributedKCover.run_from_columnar` instead gives every machine a
:class:`~repro.distributed.worker.ShardRecomputeJob` carrying only the path
and the routing parameters, so no edge bytes cross a process boundary.
Either way a worker ingests batches through the sketch builder's vectorised
path and ships its sketch home as
:class:`~repro.core.sketch_columns.SketchColumns`: ``(rank, element, set)``
rows sorted in Algorithm 1's admission order, plus threshold and truncation
flags — flat numpy buffers, no Python sets.  Each fold of the tree
concatenates two such runs, filters them by the global threshold, restores
the ``(rank, element, set)`` order with
:func:`~repro.core.sketch_columns.admission_order` — a stable sort by rank
that merges the two sorted runs, then one sort of packed ``(rank group,
set)`` keys — and runs the dedup / degree-cap / budget prefix as array
operations on the carried ranks, with no re-hash and no graph.  Round 2
reads the root's columns too:
:meth:`~repro.core.sketch_columns.SketchColumns.greedy_k_cover` picks the
sets (with ``coverage_backend``, on a kernel packed by
:meth:`~repro.coverage.bitset.BitsetCoverage.from_columns`) and the greedy's
sketch coverage gives the estimate, so a
:class:`DistributedKCover` run builds no
:class:`~repro.coverage.bipartite.BipartiteGraph` at all.
:meth:`StreamingMergeTree.result` still returns the merged
:class:`~repro.core.sketch.CoverageSketch` for callers that want one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from repro import obs
from repro.core.params import SketchParams
from repro.core.sketch import CoverageSketch
from repro.core.sketch_columns import SketchColumns, admission_order, element_starts
from repro.coverage.bitset import LAYOUT, check_coverage_backend
from repro.distributed.partition import PARTITION_STRATEGIES, EdgePartitioner
from repro.distributed.worker import (
    DEFAULT_MAP_BATCH,
    MachineShardJob,
    MachineSketch,
    MapJob,
    ShardRecomputeJob,
    execute_map_job,
)
from repro.errors import SpecError
from repro.parallel import ExecutorBackend, ParallelMapper, as_mapper
from repro.streaming.batches import EventBatch
from repro.streaming.stream import EdgeStream
from repro.utils.validation import check_positive_int

__all__ = [
    "merge_machine_sketches",
    "StreamingMergeTree",
    "DistributedRunReport",
    "DistributedKCover",
]

#: Reduce telemetry (process-global; the per-run truth stays in the report).
#: Created once at import so :func:`repro.obs.MetricsRegistry.reset` between
#: runs zeroes these handles in place instead of orphaning them.
_MERGES = obs.global_metrics().counter(
    "distributed.merges", help="pairwise sketch merges run by any reduce"
)
_FOLD_HEIGHT = obs.global_metrics().histogram(
    "distributed.fold_height",
    buckets=obs.SIZE_BUCKETS,
    help="merge-tree subtree height at each streaming fold",
)
_FOLD_ROWS_IN = obs.global_metrics().histogram(
    "distributed.fold_rows_in",
    buckets=obs.SIZE_BUCKETS,
    help="rows entering each streaming fold (both subtrees' stored edges)",
)
_FOLD_ROWS_OUT = obs.global_metrics().histogram(
    "distributed.fold_rows_out",
    buckets=obs.SIZE_BUCKETS,
    help="rows each streaming fold keeps",
)
_RESIDENT = obs.global_metrics().gauge(
    "distributed.resident_sketches",
    help="machine sketches held by the coordinator right now (max = peak)",
)


def merge_machine_sketches(
    machine_sketches: Sequence[MachineSketch],
    params: SketchParams,
    *,
    hash_seed: int = 0,
) -> CoverageSketch:
    """Merge per-shard sketches into a sketch of the union of the shards.

    One fold of every machine's columns through the admission pass the
    merge tree runs (rank order, degree cap, edge budget — the array
    restatement of Algorithm 1), then one graph build.  When the union
    overflows the edge budget the merged threshold is the hash of the last
    *admitted* element, matching :func:`repro.core.sketch.build_h_leq_n`
    (the data-dependent ``p*``); a union that fits keeps the global minimum
    of the machine thresholds.
    """
    if not machine_sketches:
        raise ValueError("need at least one machine sketch to merge")
    leaves = [_leaf(machine, hash_seed) for machine in machine_sketches]
    return _materialize(_fold(leaves, params), params)


def _leaf(machine: MachineSketch, hash_seed: int) -> SketchColumns:
    """A machine's columns as they enter the reduce.

    The machine's own truncation flags stay behind: the reduce recomputes
    them from the union, exactly as a one-shot merge would.
    """
    if machine.hash_seed != hash_seed:
        raise SpecError(
            f"machine {machine.machine_id} ranked elements with hash seed "
            f"{machine.hash_seed}, but the reduce merges hash seed {hash_seed}"
        )
    return replace(machine.columns, truncated=np.empty(0, dtype=np.uint64))


def _fold(runs: Sequence[SketchColumns], params: SketchParams) -> SketchColumns:
    """The admission pass over rank-sorted runs (the associative merge operator).

    Pure array work on the carried ranks — no re-hash, no graph.  Why it is
    associative and commutative, which the streaming tree relies on: the
    rows are put in one global total order by ``(rank, element, set)``, so
    the survivors depend only on the *multiset* of input rows.  An
    intermediate fold can only (a) drop whole elements ranked above its own
    admitted threshold — but that threshold is itself >= the final one, so
    those elements would be dropped at the root anyway — and (b) cap an
    element's owners to the smallest ``degree_cap`` set ids —
    smallest-of-union selection, which is associative.  Hash ties between
    distinct elements (probability ~2^-64) are the only caveat, the same
    caveat the one-shot merge carries.

    Truncation flags: a fold sees already-capped input degrees, so the
    flags it computes under-report whenever an element's union degree
    exceeded the cap at a lower level.  The output therefore carries
    ``computed ∪ (input flags ∩ admitted)``, which restores exactly the
    flags of one flat fold over the leaves (leaves enter with none).

    The order comes from :func:`admission_order`, which merges the sorted
    runs by rank in linear time.  A step that keeps every row (the
    threshold filter, the dedup, the cap and budget) skips its gather, and
    the flag intersection runs only when some run carries flags.
    """
    global_threshold = min(run.threshold for run in runs)
    ranks = np.concatenate([run.ranks for run in runs])
    elements = np.concatenate([run.elements for run in runs])
    set_ids = np.concatenate([run.set_ids for run in runs])
    keep = ranks <= global_threshold
    if not keep.all():
        ranks, elements, set_ids = ranks[keep], elements[keep], set_ids[keep]

    # Algorithm 1's admission order: elements by (rank, id), each element's
    # owners by ascending set id — so the degree cap keeps the same
    # smallest-id owners the offline builder keeps.
    order = admission_order(ranks, elements, set_ids)
    ranks, elements, set_ids = ranks[order], elements[order], set_ids[order]
    # Drop duplicate edges (the same input edge can only live in one shard,
    # but duplicate input edges may land in different shards).
    fresh = np.ones(len(ranks), dtype=bool)
    fresh[1:] = (elements[1:] != elements[:-1]) | (set_ids[1:] != set_ids[:-1])
    if not fresh.all():
        ranks, elements, set_ids = ranks[fresh], elements[fresh], set_ids[fresh]
    if len(ranks) == 0:
        return SketchColumns(ranks, elements, set_ids, global_threshold)

    # Element runs are contiguous after the sort.  Runs are admitted while
    # the capped stored-edge prefix is below the budget, so the admitted
    # runs are a prefix; each keeps its first degree_cap rows.
    starts = element_starts(elements)
    degrees = np.diff(starts, append=len(elements))
    capped_degrees = np.minimum(degrees, params.degree_cap)
    edges_before = np.cumsum(capped_degrees) - capped_degrees
    admitted = int(np.count_nonzero(edges_before < params.edge_budget))
    over_cap = degrees[:admitted] > params.degree_cap

    truncated = np.unique(elements[starts[:admitted][over_cap]])
    carried = np.concatenate([run.truncated for run in runs])
    if len(carried):
        admitted_elements = elements[starts[:admitted]]
        truncated = np.union1d(truncated, carried[np.isin(carried, admitted_elements)])
    if admitted == len(starts):
        threshold = global_threshold
    else:
        # Algorithm 1's convention: p* is the hash of the last admitted
        # element (ranks are sorted, so that is the last admitted run).
        threshold = float(ranks[starts[admitted - 1]])
    if admitted < len(starts) or over_cap.any():
        run_start = np.repeat(starts[:admitted], degrees[:admitted])
        stored = np.arange(len(run_start)) - run_start < params.degree_cap
        ranks, elements, set_ids = (
            column[: len(stored)][stored] for column in (ranks, elements, set_ids)
        )
    return SketchColumns(ranks, elements, set_ids, threshold, truncated)


def _materialize(columns: SketchColumns, params: SketchParams) -> CoverageSketch:
    """The merged :class:`CoverageSketch`, built from the root's columns."""
    with obs.span("reduce.materialize", rows=columns.num_edges):
        return columns.to_sketch(params)


class StreamingMergeTree:
    """Incremental pairwise reduce of machine sketches, O(log M) resident.

    Machine columns enter as height-0 subtrees; whenever two subtrees of
    equal height exist they fold immediately (a binary counter over subtree
    heights), so at most ``log2(M) + 1`` column sets are ever resident at
    the coordinator **regardless of arrival order** — a fixed-shape tree
    would degrade to ``M/2`` resident under an adversarial order.  Every
    resident subtree is a :class:`~repro.core.sketch_columns.SketchColumns`
    triple of at most ``edge_budget + degree_cap`` rows; no graph exists
    unless :meth:`result` builds one for the caller
    (:meth:`result_columns` returns the root's columns).  Because the fold
    is associative and commutative (see :func:`_fold`), the final sketch is
    byte-identical to the one-shot :func:`merge_machine_sketches` for every
    arrival order, even though the intermediate groupings differ.

    ``peak_resident`` and ``merge_count`` feed the run report;
    :meth:`result` / :meth:`result_columns` drain the remaining subtrees
    (total pairwise merges: ``M - 1``); call one of them, once.
    """

    def __init__(self, params: SketchParams, *, hash_seed: int = 0) -> None:
        self.params = params
        self.hash_seed = hash_seed
        #: Slot ``h`` holds the pending subtree of height ``h``, if any.
        self._slots: list[SketchColumns | None] = []
        #: Pairwise merge passes run so far (``M - 1`` after :meth:`result`).
        self.merge_count = 0
        #: Sketches currently held (slots plus the one being sifted in).
        self.resident = 0
        #: High-water mark of ``resident`` — the memory model the report and
        #: the benchmark gate: O(log M), never all M.
        self.peak_resident = 0

    def add(self, machine_sketch: MachineSketch) -> None:
        """Fold one arriving machine sketch into the tree (carry-merge)."""
        node = _leaf(machine_sketch, self.hash_seed)
        self.resident += 1
        self.peak_resident = max(self.peak_resident, self.resident)
        _RESIDENT.set(self.resident)
        height = 0
        while height < len(self._slots) and self._slots[height] is not None:
            other = self._slots[height]
            self._slots[height] = None
            height += 1
            node = self._merge_pair(other, node, height)
        if height == len(self._slots):
            self._slots.append(None)
        self._slots[height] = node

    def _merge_pair(
        self, left: SketchColumns, right: SketchColumns, height: int
    ) -> SketchColumns:
        """Fold two subtrees into one of the given height."""
        with obs.span("reduce.fold", height=height):
            merged = _fold([left, right], self.params)
        self.merge_count += 1
        self.resident -= 1
        _MERGES.inc()
        _FOLD_HEIGHT.observe(height)
        _FOLD_ROWS_IN.observe(left.num_edges + right.num_edges)
        _FOLD_ROWS_OUT.observe(merged.num_edges)
        _RESIDENT.set(self.resident)
        return merged

    def result(self) -> CoverageSketch:
        """Drain the remaining subtrees into the final merged sketch."""
        return _materialize(self.result_columns(), self.params)

    def result_columns(self) -> SketchColumns:
        """Drain the remaining subtrees into the root's columns (no graph)."""
        pending = [(h, node) for h, node in enumerate(self._slots) if node is not None]
        if not pending:
            raise ValueError("no machine sketches were added to the merge tree")
        self._slots = []
        height, node = pending[0]
        for other_height, other in pending[1:]:
            height = max(height, other_height) + 1
            node = self._merge_pair(node, other, height)
        if self.merge_count == 0:
            # A single machine never pairs up, but the one-shot merge still
            # runs one admission pass over that lone sketch — match it.
            with obs.span("reduce.merge", machines=1):
                node = _fold([node], self.params)
            self.merge_count += 1
            _MERGES.inc()
        return node


@dataclass
class DistributedRunReport:
    """Everything measured about one distributed run."""

    solution: list[int]
    coverage_estimate: float
    num_machines: int
    strategy: str
    rounds: int
    shard_edges: list[int] = field(default_factory=list)
    machine_stored_edges: list[int] = field(default_factory=list)
    coordinator_edges: int = 0
    communication_edges: int = 0
    merged_threshold: float = 1.0
    coverage_backend: str | None = None
    executor: str = "serial"
    map_workers: int = 1
    #: Most machine sketches the merge tree held at once
    #: (at most ``floor(log2(num_machines)) + 2``).
    peak_resident_sketches: int = 0
    #: Merge passes the reduce ran: ``num_machines - 1`` pairwise passes
    #: (one admission pass for a single machine).
    merge_count: int = 0

    @property
    def max_machine_load(self) -> int:
        """Largest number of edges any machine had to store."""
        return max(self.machine_stored_edges, default=0)

    @property
    def min_machine_load(self) -> int:
        """Smallest number of edges any machine had to store."""
        return min(self.machine_stored_edges, default=0)

    @property
    def mean_machine_load(self) -> float:
        """Mean number of stored edges per machine."""
        if not self.machine_stored_edges:
            return 0.0
        return sum(self.machine_stored_edges) / len(self.machine_stored_edges)

    def as_dict(self) -> dict[str, object]:
        """Flatten for experiment tables.

        The per-machine load distribution is reported as min/mean/max columns
        for both the raw shard sizes and the stored (post-sketch) edges, so
        load-balance across sharding strategies shows up in result tables.
        """
        shard = self.shard_edges
        return {
            "num_machines": self.num_machines,
            "strategy": self.strategy,
            "rounds": self.rounds,
            "solution_size": len(self.solution),
            "coverage_estimate": self.coverage_estimate,
            "shard_edges_min": min(shard, default=0),
            "shard_edges_mean": (sum(shard) / len(shard)) if shard else 0.0,
            "shard_edges_max": max(shard, default=0),
            "machine_load_min": self.min_machine_load,
            "machine_load_mean": self.mean_machine_load,
            "machine_load_max": self.max_machine_load,
            "coordinator_edges": self.coordinator_edges,
            "communication_edges": self.communication_edges,
            "merged_threshold": self.merged_threshold,
            "coverage_backend": self.coverage_backend or "-",
            "executor": self.executor,
            "map_workers": self.map_workers,
            "peak_resident_sketches": self.peak_resident_sketches,
            "merge_count": self.merge_count,
        }


class DistributedKCover:
    """Two-round distributed (MapReduce-style) k-cover via composable sketches.

    Parameters
    ----------
    num_sets, num_elements:
        Instance dimensions (known to every machine, as in the paper).
    k, epsilon:
        Problem and accuracy parameters.
    num_machines:
        Number of simulated machines.
    strategy:
        Edge partitioning strategy (see :mod:`repro.distributed.partition`).
    params:
        Explicit sketch budgets (defaults to Algorithm 3's choice).
    coverage_backend:
        ``"words"`` (the one packed layout) or ``None``; the
        coordinator's greedy then runs on a kernel packed from the merged
        sketch (same selections, faster on dense merges).
    batch_size:
        Map-phase batch size for the columnar paths.
    executor:
        Executor backend for the map phase (``"serial"``, ``"thread"``,
        ``"process"``, ``"auto"``, an
        :class:`~repro.parallel.ExecutorBackend` or a prebuilt
        :class:`~repro.parallel.ParallelMapper`); ``None`` runs the map jobs
        in-process.  Every backend produces byte-identical runs
        (property-tested).
    max_workers:
        Pool-size cap for the parallel executors (defaults to the usable
        CPU count).
    """

    def __init__(
        self,
        num_sets: int,
        num_elements: int,
        k: int,
        epsilon: float = 0.2,
        *,
        num_machines: int = 4,
        strategy: str = "random",
        params: SketchParams | None = None,
        mode: str = "scaled",
        scale: float = 1.0,
        seed: int = 0,
        coverage_backend: str | None = None,
        batch_size: int = DEFAULT_MAP_BATCH,
        executor: str | ExecutorBackend | ParallelMapper | None = None,
        max_workers: int | None = None,
    ) -> None:
        from repro.core.kcover import default_kcover_params

        check_positive_int(num_machines, "num_machines")
        check_positive_int(k, "k")
        check_positive_int(batch_size, "batch_size")
        if strategy not in PARTITION_STRATEGIES:
            raise SpecError(
                f"unknown strategy {strategy!r}; expected one of {PARTITION_STRATEGIES}"
            )
        check_coverage_backend(coverage_backend)
        self.num_sets = num_sets
        self.num_elements = num_elements
        self.k = k
        self.epsilon = epsilon
        self.num_machines = num_machines
        self.strategy = strategy
        self.seed = seed
        self.coverage_backend = coverage_backend
        self.batch_size = batch_size
        self.mapper = as_mapper(executor, max_workers)
        self.params = params or default_kcover_params(
            num_sets, num_elements, k, epsilon, mode=mode, scale=scale
        )

    # ------------------------------------------------------------------ #
    # entry points: each builds one job per machine
    # ------------------------------------------------------------------ #
    def run(self, edges: Iterable[tuple[int, int]]) -> DistributedRunReport:
        """Execute the two distributed rounds on an in-memory edge set.

        The edges are packed into one columnar batch up front and routed by
        :meth:`run_batched` (the same shards :func:`partition_edges` cuts
        from the flat list, property-tested).
        """
        batch = edges if isinstance(edges, EventBatch) else EventBatch.from_edges(edges)
        return self.run_batched([batch], total_edges=len(batch))

    def run_batched(
        self,
        batches: Iterable[EventBatch],
        *,
        total_edges: int | None = None,
    ) -> DistributedRunReport:
        """Route a stream of edge batches across the machines, map and reduce.

        Each batch is routed in one vectorised assignment and the
        sub-batches are collected per machine into one
        :class:`~repro.distributed.worker.MachineShardJob` each — batch
        boundaries do not change a builder's final state (property-tested),
        and no per-edge Python objects are created anywhere.  Collection
        holds the pass's columns in coordinator memory (and the process
        backend pickles each shard to its child); for on-disk workloads
        prefer :meth:`run_from_columnar`, whose jobs ship no edge data.
        ``total_edges`` is only needed by the ``row_range`` strategy.
        """
        partitioner = EdgePartitioner(
            self.num_machines,
            strategy=self.strategy,
            seed=self.seed,
            total_edges=total_edges,
        )
        shards: list[list[EventBatch]] = [[] for _ in range(self.num_machines)]
        for batch in batches:
            for machine, sub in enumerate(partitioner.split(batch)):
                if len(sub):
                    shards[machine].append(sub)
        jobs = [
            MachineShardJob(
                machine_id=machine_id,
                set_ids=_concat([sub.set_ids for sub in parts]),
                elements=_concat([sub.elements for sub in parts]),
                params=self.params,
                hash_seed=self.seed,
                batch_size=self.batch_size,
            )
            for machine_id, parts in enumerate(shards)
        ]
        return self._map_reduce(jobs)

    def run_from_columnar(self, source) -> DistributedRunReport:
        """Execute the rounds straight off a columnar directory (or view).

        ``source`` is a path written by
        :func:`repro.coverage.io.write_columnar` or an already-open
        :class:`repro.coverage.io.ColumnarEdges`.  Every machine gets one
        :class:`~repro.distributed.worker.ShardRecomputeJob` — path plus
        routing parameters — whose worker re-opens the memory-mapped
        directory and sketches only its own rows: a ``row_range`` job maps
        its contiguous slice, every other strategy re-runs the
        deterministic partitioner locally.  **Zero edge bytes** are pickled
        for every strategy and executor; the serial backend runs the same
        jobs in-process (one scan of the file per machine).  Results are
        byte-identical to :meth:`run` on the same edges in file order
        (property-tested per strategy).

        An in-memory-only view (no backing path) has nothing for a worker
        to re-open, so it is routed by :meth:`run_batched` instead.
        """
        from repro.coverage.io import ColumnarEdges, open_columnar

        columns = source if isinstance(source, ColumnarEdges) else open_columnar(source)
        if columns.path is None:
            stream = EdgeStream.from_columnar(columns, order="given")
            return self.run_batched(
                stream.iter_batches(self.batch_size), total_edges=stream.num_events
            )
        jobs = [
            ShardRecomputeJob(
                machine_id=machine_id,
                path=str(columns.path),
                strategy=self.strategy,
                seed=self.seed,
                num_machines=self.num_machines,
                params=self.params,
                hash_seed=self.seed,
                batch_size=self.batch_size,
            )
            for machine_id in range(self.num_machines)
        ]
        return self._map_reduce(jobs)

    # ------------------------------------------------------------------ #
    # round 1 (map) feeding round 2 (streaming reduce), then the greedy
    # ------------------------------------------------------------------ #
    def _map_reduce(self, jobs: Sequence[MapJob]) -> DistributedRunReport:
        """Fan the map jobs over the executor, fold each sketch in, solve.

        On the process backend the gather runs on the interpreter's live
        pool, so a solve pays no worker start-up once the first process map
        has started it (see :mod:`repro.parallel.mapper`).  Sketches flow
        from :meth:`~repro.parallel.ParallelMapper.map_unordered` straight
        into the :class:`StreamingMergeTree` as they complete — the reduce
        overlaps the slowest mappers and holds O(log num_machines) sketches.
        Each machine's ``edges_processed`` is its shard size (the jobs feed
        every routed edge to the builder).  ``self.mapper.last_execution``
        is read after the gather, so the report records what the map phase
        actually ran on (including the sandbox fallback).
        """
        tree = StreamingMergeTree(self.params, hash_seed=self.seed)
        loads: dict[int, tuple[int, int]] = {}
        for _, machine in self.mapper.map_unordered(execute_map_job, jobs):
            loads[machine.machine_id] = (
                machine.edges_processed,
                machine.edges_stored,
            )
            tree.add(machine)
        root = tree.result_columns()
        machine_ids = sorted(loads)
        machine_stored_edges = [loads[i][1] for i in machine_ids]
        execution = self.mapper.last_execution
        with obs.span("distributed.greedy", k=self.k, rows=root.num_edges):
            packed = self.coverage_backend is not None and root.num_edges > 0
            result = root.greedy_k_cover(
                self.params.num_sets, self.k, coverage_backend=self.coverage_backend
            )
            solution, sketch_coverage = result.selected, result.coverage
        # Theorem 2.7's estimate |Γ(H, S)| / p*, as CoverageSketch computes it.
        estimate = sketch_coverage / root.threshold if root.threshold > 0.0 else 0.0
        return DistributedRunReport(
            solution=solution,
            coverage_estimate=estimate,
            num_machines=self.num_machines,
            strategy=self.strategy,
            rounds=2,
            shard_edges=[loads[i][0] for i in machine_ids],
            machine_stored_edges=machine_stored_edges,
            coordinator_edges=root.num_edges,
            communication_edges=sum(machine_stored_edges),
            merged_threshold=root.threshold,
            coverage_backend=LAYOUT if packed else None,
            executor=execution[0],
            map_workers=execution[1],
            peak_resident_sketches=tree.peak_resident,
            merge_count=tree.merge_count,
        )


def _concat(columns: list[np.ndarray]) -> np.ndarray:
    """One machine's routed column pieces as a single ``uint64`` column."""
    if not columns:
        return np.empty(0, dtype=np.uint64)
    return np.concatenate(columns)
