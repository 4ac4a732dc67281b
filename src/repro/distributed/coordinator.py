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
coordinator merges and runs the offline greedy (optionally on a packed
coverage kernel, see ``coverage_backend``).

One pipeline
------------
Every entry point of :class:`DistributedKCover` builds one list of picklable
map jobs (:mod:`repro.distributed.worker`), hands it to
:meth:`~repro.parallel.ParallelMapper.map_unordered` and folds each machine
sketch into a :class:`StreamingMergeTree` **as it arrives**; the serial
backend runs the same jobs in-process.  The merge operator is associative
and commutative (the admission pass depends only on the multiset of
surviving ``(set, element, rank)`` rows, not on how they were grouped), so
the binary-counter tree keeps at most ``O(log num_machines)`` sketches
resident for *any* arrival order and produces the byte-identical sketch the
one-shot :func:`merge_machine_sketches` produces (property-tested across
executors, worker counts and adversarial arrival orders).

The whole pipeline is columnar: in-memory input is routed once by
:meth:`~repro.distributed.partition.EdgePartitioner.split` into one
:class:`~repro.distributed.worker.MachineShardJob` per machine, workers
ingest batches through the sketch builder's vectorised path, and each merge
stacks two sketches' edge columns and runs one lexsort admission pass.
:meth:`DistributedKCover.run_from_columnar` closes the loop for on-disk
inputs: every machine gets a
:class:`~repro.distributed.worker.ShardRecomputeJob` carrying only the path
and the routing parameters, whose worker re-opens the memory-mapped columns
and sketches its own rows — so the coordinator never materialises a single
per-edge Python tuple and no edge bytes cross a process boundary, for every
partition strategy and executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from repro import obs
from repro.coverage.bipartite import BipartiteGraph
from repro.core.hashing import UniformHash
from repro.core.params import SketchParams
from repro.core.sketch import CoverageSketch
from repro.distributed.partition import EdgePartitioner
from repro.distributed.worker import (
    DEFAULT_MAP_BATCH,
    MachineShardJob,
    MachineSketch,
    MapJob,
    ShardRecomputeJob,
    execute_map_job,
)
from repro.offline.greedy import greedy_k_cover
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
_RESIDENT = obs.global_metrics().gauge(
    "distributed.resident_sketches",
    help="machine sketches held by the coordinator right now (max = peak)",
)


def _sketch_columns(sketch: CoverageSketch) -> tuple[np.ndarray, np.ndarray]:
    """One shard sketch's edges as parallel uint64 (set, element) columns."""
    count = sketch.num_edges
    sets = np.empty(count, dtype=np.uint64)
    elements = np.empty(count, dtype=np.uint64)
    for row, (set_id, element) in enumerate(sketch.graph.edges()):
        sets[row] = set_id
        elements[row] = element
    return sets, elements


def merge_machine_sketches(
    machine_sketches: Sequence[MachineSketch],
    params: SketchParams,
    *,
    hash_seed: int = 0,
) -> CoverageSketch:
    """Merge per-shard sketches into a sketch of the union of the shards.

    The shard columns are stacked and the offline admission (rank order,
    degree cap, edge budget) runs as one vectorised lexsort pass — the array
    restatement of Algorithm 1, byte-identical to the per-element loop.  When
    the union overflows the edge budget the merged threshold is the hash of
    the last *admitted* element, matching
    :func:`repro.core.sketch.build_h_leq_n` (the data-dependent ``p*``); a
    union that fits keeps the global minimum of the machine thresholds.
    """
    if not machine_sketches:
        raise ValueError("need at least one machine sketch to merge")
    return _merge_sketches(
        [ms.sketch for ms in machine_sketches], params, hash_seed=hash_seed
    )


def _merge_sketches(
    sketches: Sequence[CoverageSketch],
    params: SketchParams,
    *,
    hash_seed: int = 0,
) -> CoverageSketch:
    """The admission pass over raw sketches (the associative merge operator).

    Associativity/commutativity, which the streaming tree relies on: the
    lexsort realises one global total order by ``(rank, element, set)``, so
    the surviving rows depend only on the *multiset* of input rows.  An
    intermediate merge can only (a) drop whole elements whose rank exceeds
    its own admitted threshold — but that threshold is itself >= the final
    one, so those elements would be dropped at the root anyway — and (b)
    cap an element's owners to the smallest ``degree_cap`` set ids —
    smallest-of-union selection, which is associative.  Hash ties between
    distinct elements (probability ~2^-64) are the only caveat, the same
    caveat the one-shot merge carries.
    """
    hash_fn = UniformHash(hash_seed)
    global_threshold = min(sketch.threshold for sketch in sketches)

    # Stack the shard columns, restricted to globally-admitted elements.
    columns = [_sketch_columns(sketch) for sketch in sketches]
    sets = np.concatenate([c[0] for c in columns])
    elements = np.concatenate([c[1] for c in columns])
    merged = BipartiteGraph(params.num_sets)
    if len(sets) == 0:
        return CoverageSketch(
            graph=merged, params=params, threshold=global_threshold
        )
    ranks = hash_fn.value_many(elements)
    keep = ranks <= global_threshold
    sets, elements, ranks = sets[keep], elements[keep], ranks[keep]

    # One stable lexsort realises Algorithm 1's admission order: elements by
    # (rank, id), each element's owners by ascending set id — so the degree
    # cap keeps the same smallest-id owners the offline builder keeps.
    order = np.lexsort((sets, elements, ranks))
    sets, elements, ranks = sets[order], elements[order], ranks[order]
    # Drop duplicate edges (the same input edge can only live in one shard,
    # but duplicate input edges may land in different shards).
    fresh = np.ones(len(sets), dtype=bool)
    fresh[1:] = (elements[1:] != elements[:-1]) | (sets[1:] != sets[:-1])
    sets, elements, ranks = sets[fresh], elements[fresh], ranks[fresh]

    if len(elements) == 0:
        return CoverageSketch(
            graph=merged, params=params, threshold=global_threshold
        )
    # Element runs are contiguous after the sort; cap each run's degree and
    # admit runs while the stored-edge prefix is below the budget.
    starts_mask = np.ones(len(elements), dtype=bool)
    starts_mask[1:] = elements[1:] != elements[:-1]
    run_starts = np.flatnonzero(starts_mask)
    run_id = np.cumsum(starts_mask) - 1
    degrees = np.diff(np.append(run_starts, len(elements)))
    within_run = np.arange(len(elements)) - run_starts[run_id]
    capped = within_run < params.degree_cap
    capped_degrees = np.minimum(degrees, params.degree_cap)
    edges_before = np.concatenate(([0], np.cumsum(capped_degrees)[:-1]))
    admitted_runs = edges_before < params.edge_budget

    stored = capped & admitted_runs[run_id]
    for set_id, element in zip(sets[stored].tolist(), elements[stored].tolist()):
        merged.add_edge(set_id, element)
    admitted_rows = run_starts[admitted_runs]
    hashes = dict(
        zip(elements[admitted_rows].tolist(), ranks[admitted_rows].tolist())
    )
    truncated = frozenset(
        elements[run_starts[admitted_runs & (degrees > params.degree_cap)]].tolist()
    )
    if bool(admitted_runs.all()) or len(admitted_rows) == 0:
        threshold = global_threshold
    else:
        # Algorithm 1's convention: p* is the hash of the last admitted
        # element (ranks are sorted, so that is the final admitted row).
        threshold = float(ranks[admitted_rows[-1]])
    return CoverageSketch(
        graph=merged,
        params=params,
        threshold=threshold,
        element_hashes=hashes,
        truncated_elements=truncated,
    )


@dataclass
class _MergeNode:
    """One in-flight subtree of the streaming reduce.

    ``carried`` accumulates the degree-cap truncation flags the *flat* merge
    would have computed: an intermediate pass sees already-capped child
    degrees, so its own ``truncated_elements`` under-reports whenever the
    true union degree exceeded the cap at a lower level.  The propagation
    rule ``computed ∪ ((left ∪ right) ∩ admitted)`` restores exactly the
    flat set (leaves carry nothing — the one-shot merge ignores the machines'
    own shard-level flags the same way).
    """

    height: int
    sketch: CoverageSketch
    carried: frozenset[int]


class StreamingMergeTree:
    """Incremental pairwise reduce of machine sketches, O(log M) resident.

    Sketches enter as height-0 subtrees; whenever two subtrees of equal
    height exist they merge immediately (a binary counter over subtree
    heights), so at most ``log2(M) + 1`` sketches are ever resident at the
    coordinator **regardless of arrival order** — a fixed-shape tree would
    degrade to ``M/2`` resident under an adversarial order.  Because the
    merge operator is associative and commutative (see
    :func:`_merge_sketches`), the final sketch is byte-identical to the
    one-shot :func:`merge_machine_sketches` for every arrival order, even
    though the intermediate groupings differ.

    ``peak_resident`` and ``merge_count`` feed the run report;
    :meth:`result` drains the remaining subtrees (total pairwise merges:
    ``M - 1``) and may be called once.
    """

    def __init__(self, params: SketchParams, *, hash_seed: int = 0) -> None:
        self.params = params
        self.hash_seed = hash_seed
        self._slots: list[_MergeNode | None] = []
        self._added = 0
        #: Pairwise merge passes run so far (``M - 1`` after :meth:`result`).
        self.merge_count = 0
        #: Sketches currently held (slots plus the one being sifted in).
        self.resident = 0
        #: High-water mark of ``resident`` — the memory model the report and
        #: the benchmark gate: O(log M), never all M.
        self.peak_resident = 0

    def add(self, machine_sketch: MachineSketch) -> None:
        """Fold one arriving machine sketch into the tree (carry-merge)."""
        node = _MergeNode(
            height=0, sketch=machine_sketch.sketch, carried=frozenset()
        )
        self._added += 1
        self.resident += 1
        self.peak_resident = max(self.peak_resident, self.resident)
        _RESIDENT.set(self.resident)
        while node.height < len(self._slots) and self._slots[node.height] is not None:
            other = self._slots[node.height]
            self._slots[node.height] = None
            node = self._merge_pair(other, node)
        if node.height == len(self._slots):
            self._slots.append(None)
        self._slots[node.height] = node

    def _merge_pair(self, left: _MergeNode, right: _MergeNode) -> _MergeNode:
        """Merge two subtrees, propagating the carried truncation flags."""
        height = max(left.height, right.height) + 1
        with obs.span("reduce.fold", height=height):
            merged = _merge_sketches(
                [left.sketch, right.sketch], self.params, hash_seed=self.hash_seed
            )
        carried = frozenset(merged.truncated_elements) | frozenset(
            element
            for element in (left.carried | right.carried)
            if element in merged.element_hashes
        )
        self.merge_count += 1
        self.resident -= 1
        _MERGES.inc()
        _FOLD_HEIGHT.observe(height)
        _RESIDENT.set(self.resident)
        return _MergeNode(height=height, sketch=merged, carried=carried)

    def result(self) -> CoverageSketch:
        """Drain the remaining subtrees into the final merged sketch."""
        nodes = [node for node in self._slots if node is not None]
        if not nodes:
            raise ValueError("no machine sketches were added to the merge tree")
        self._slots = []
        node = nodes[0]
        for other in nodes[1:]:
            node = self._merge_pair(node, other)
        if self.merge_count == 0:
            # A single machine never pairs up, but the one-shot merge still
            # runs one admission pass over that lone sketch — match it.
            with obs.span("reduce.merge", machines=1):
                merged = _merge_sketches(
                    [node.sketch], self.params, hash_seed=self.hash_seed
                )
            self.merge_count += 1
            _MERGES.inc()
            return merged
        return replace(node.sketch, truncated_elements=node.carried)


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
        Optional packed-bitset kernel backend name (``"auto"``, ``"bytes"``,
        ``"words"``); the coordinator's greedy then runs on a kernel packed
        from the merged sketch (same selections, faster on dense merges).
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
        :meth:`run_batched` (identical results to per-edge sharding plus
        scalar workers, property-tested).
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

        One :meth:`~repro.parallel.ParallelMapper.pool_scope` wraps the
        gather, so the whole map phase shares a single pool.  Sketches flow
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
        with self.mapper.pool_scope():
            for _, machine in self.mapper.map_unordered(execute_map_job, jobs):
                loads[machine.machine_id] = (
                    machine.edges_processed,
                    machine.edges_stored,
                )
                tree.add(machine)
        merged = tree.result()
        machine_ids = sorted(loads)
        machine_stored_edges = [loads[i][1] for i in machine_ids]
        execution = self.mapper.last_execution

        from repro.coverage.bitset import kernel_for

        with obs.span("distributed.greedy", k=self.k):
            kernel = kernel_for(merged.graph, self.coverage_backend)
            solution = greedy_k_cover(merged.graph, self.k, kernel=kernel).selected
        return DistributedRunReport(
            solution=solution,
            coverage_estimate=merged.estimate_coverage(solution),
            num_machines=self.num_machines,
            strategy=self.strategy,
            rounds=2,
            shard_edges=[loads[i][0] for i in machine_ids],
            machine_stored_edges=machine_stored_edges,
            coordinator_edges=merged.num_edges,
            communication_edges=sum(machine_stored_edges),
            merged_threshold=merged.threshold,
            coverage_backend=kernel.backend.name if kernel is not None else None,
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
