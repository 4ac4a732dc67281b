"""Per-machine sketch workers.

Each simulated machine owns one shard of the edge set and builds the paper's
``H_{<=n}`` sketch of that shard using a hash function **shared with every
other machine** (same seed).  Sharing the hash is what makes the per-machine
sketches composable: an element's rank is a global property, so the
coordinator can merge shard sketches by taking unions and re-applying the
global threshold/budget.

A shard reaches a worker as edge batches, and every batch goes through the
sketch builder's vectorised ``process_batch``.  The shard may be one
:class:`~repro.streaming.batches.EventBatch`, an iterable of batches, or an
:class:`~repro.streaming.stream.EdgeStream`, whose one pass is read as the
stream's own batches, so a memory-mapped columnar slice flows from disk
pages into the sketch with no per-edge Python objects anywhere.  Edge
tuples become a batch with
:meth:`~repro.streaming.batches.EventBatch.from_edges`; any other item is
rejected with a :class:`~repro.errors.SpecError` that names these shapes.

The map jobs below cut their shard columns into batches with
:meth:`~repro.streaming.batches.EventBatch.chunks`, the same helper the
streams use.

Job protocol
------------
For the :mod:`repro.parallel` executor runtime the map phase is expressed as
picklable *jobs*: small frozen dataclasses describing one machine's work,
executed by the top-level :func:`execute_map_job` (top-level so
:class:`~concurrent.futures.ProcessPoolExecutor` can pickle it by
reference).  There are two job types, one per kind of input:

* :class:`ShardRecomputeJob` describes a shard of an on-disk columnar
  directory by ``(path, strategy, seed, num_machines, machine_id, params)``
  alone.  Shard assignment is deterministic (see
  :mod:`repro.distributed.partition`), so the executing worker re-opens
  (memory-maps) the directory itself: a ``row_range`` job maps only its own
  contiguous row slice, every other strategy re-runs the partitioner's
  routing locally and keeps its own machine's rows.  **No edge data ever
  crosses the process boundary**, for every strategy.
* :class:`MachineShardJob` carries the shard's edge columns directly, for
  shards that only exist in memory (thread/serial backends read them
  zero-copy; the process backend pickles them, which is correct but pays
  the transfer).

What travels home
-----------------
A job's result is a :class:`MachineSketch` whose sketch is a
:class:`~repro.core.sketch_columns.SketchColumns`: the stored edges as
``(rank, element, set)`` columns sorted in Algorithm 1's admission order,
plus the threshold ``p*`` and the truncation flags, exported straight from
the builder's state with no graph copy.  That is exactly what the
coordinator's merge tree folds — it never needs the worker's adjacency
graph — so a process pool pickles three flat numpy buffers (about 24 bytes
per stored edge) instead of a dict of Python sets.  A
:class:`~repro.core.sketch.CoverageSketch` view is still one attribute away
(:attr:`MachineSketch.sketch`), built lazily and never pickled.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from repro import obs
from repro.core.hashing import UniformHash
from repro.core.params import SketchParams
from repro.core.sketch import CoverageSketch
from repro.core.sketch_columns import SketchColumns
from repro.core.streaming_sketch import StreamingSketchBuilder
from repro.errors import SpecError
from repro.streaming.batches import EventBatch
from repro.streaming.stream import EdgeStream

__all__ = [
    "DEFAULT_MAP_BATCH",
    "MachineSketch",
    "MachineShardJob",
    "ShardRecomputeJob",
    "execute_map_job",
    "build_machine_sketch",
    "build_all_machine_sketches",
]

#: Events per batch a worker feeds its sketch builder: the chunk size of the
#: map jobs' shard columns and of one pass over an :class:`EdgeStream`
#: shard.  Large enough to amortise the per-batch numpy overhead, small
#: enough that one batch of two uint64 columns stays cache-friendly.
DEFAULT_MAP_BATCH = 65_536

#: A worker input, always edge batches: one batch, an iterable of batches,
#: or an :class:`EdgeStream` (one pass, read as its own batches).
Shard = EventBatch | Iterable[EventBatch] | EdgeStream


@dataclass(frozen=True, eq=False)
class MachineSketch:
    """The outcome of one machine's local pass over its shard.

    The sketch travels as :class:`~repro.core.sketch_columns.SketchColumns`
    — rank-sorted ``(rank, element, set)`` rows plus threshold and
    truncation flags — which is all the coordinator's reduce reads.
    :attr:`sketch` is a lazily built :class:`CoverageSketch` view of the
    same rows for callers that want a graph; it is never pickled, so a
    process pool ships flat numpy buffers and no Python sets.
    ``hash_seed`` names the hash every rank came from: sketches only merge
    with sketches ranked by the same hash.
    """

    machine_id: int
    columns: SketchColumns
    params: SketchParams
    edges_processed: int
    hash_seed: int = 0

    @property
    def edges_stored(self) -> int:
        """Edges the machine's sketch keeps."""
        return self.columns.num_edges

    @cached_property
    def sketch(self) -> CoverageSketch:
        """The machine's sketch as a :class:`CoverageSketch` (built on first use)."""
        return self.columns.to_sketch(self.params)

    def __getstate__(self) -> dict[str, object]:
        state = dict(self.__dict__)
        state.pop("sketch", None)
        return state

    @property
    def compression(self) -> float:
        """Stored / processed edges (1.0 when the shard fit in the budget)."""
        if self.edges_processed == 0:
            return 1.0
        return self.edges_stored / self.edges_processed


def _feed(builder: StreamingSketchBuilder, shard: Shard, batch_size: int) -> None:
    """Drain a shard's batches through the builder."""
    if isinstance(shard, EdgeStream):
        batches = shard.iter_batches(batch_size)
    elif isinstance(shard, Iterable):
        batches = shard
    else:  # one batch, or a shard of no accepted shape
        batches = (shard,)
    for batch in batches:
        if not isinstance(batch, EventBatch):
            raise SpecError(
                "a shard is an EventBatch, an iterable of EventBatch or an "
                f"EdgeStream, got an item of type {type(batch).__name__} "
                "(EventBatch.from_edges makes a batch of edge tuples)"
            )
        builder.process_batch(batch)


def build_machine_sketch(
    machine_id: int,
    shard: Shard,
    params: SketchParams,
    *,
    hash_seed: int = 0,
    batch_size: int = DEFAULT_MAP_BATCH,
) -> MachineSketch:
    """Build one machine's sketch of its shard (single local pass).

    ``shard`` is an :class:`~repro.streaming.batches.EventBatch`, an
    iterable of batches, or an :class:`~repro.streaming.stream.EdgeStream`;
    anything else raises :class:`~repro.errors.SpecError`.
    """
    builder = StreamingSketchBuilder(params, hash_fn=UniformHash(hash_seed))
    _feed(builder, shard, batch_size)
    return MachineSketch(
        machine_id=machine_id,
        columns=builder.columns(),
        params=params,
        edges_processed=builder.edges_seen,
        hash_seed=hash_seed,
    )


def build_all_machine_sketches(
    shards: Iterable[Shard],
    params: SketchParams,
    *,
    hash_seed: int = 0,
    batch_size: int = DEFAULT_MAP_BATCH,
) -> list[MachineSketch]:
    """Build every machine's sketch (sequentially — the shards are independent).

    For multi-core execution, express the shards as jobs and fan them out
    with a :class:`repro.parallel.ParallelMapper` over
    :func:`execute_map_job` instead.
    """
    return [
        build_machine_sketch(
            machine_id, shard, params, hash_seed=hash_seed, batch_size=batch_size
        )
        for machine_id, shard in enumerate(shards)
    ]


# --------------------------------------------------------------------- #
# picklable map jobs (the repro.parallel executor protocol)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class MachineShardJob:
    """One machine's shard, carried as in-memory edge columns.

    ``set_ids`` / ``elements`` are the shard's parallel ``uint64`` columns in
    arrival order.  Serial and thread backends read them zero-copy; the
    process backend pickles them (prefer :class:`ShardRecomputeJob` when the
    shard lives in a columnar directory).
    """

    machine_id: int
    set_ids: np.ndarray
    elements: np.ndarray
    params: SketchParams
    hash_seed: int = 0
    batch_size: int = DEFAULT_MAP_BATCH

    def run(self) -> MachineSketch:
        """Map this shard into its machine sketch."""
        return build_machine_sketch(
            self.machine_id,
            EventBatch(self.set_ids, self.elements).chunks(self.batch_size),
            self.params,
            hash_seed=self.hash_seed,
            batch_size=self.batch_size,
        )


@dataclass(frozen=True)
class ShardRecomputeJob:
    """One machine's shard of a columnar directory, described by its routing.

    No edge data (and no row bounds) is carried at all: shard assignment is a
    pure function of ``(strategy, seed, num_machines)`` over the columns in
    file order — batch-boundary-invariant by contract
    (:class:`~repro.distributed.partition.EdgePartitioner`, property-tested)
    — so the executing worker re-opens (memory-maps) the directory and
    sketches only the rows assigned to ``machine_id``.  A ``row_range`` job
    maps just its own :func:`~repro.distributed.partition.row_range_bounds`
    slice; every other strategy re-runs the routing locally over the whole
    file, the classic recompute-over-communicate trade, itself vectorised.
    Every partition strategy therefore ships **zero edge bytes**, and the
    resulting sketch is byte-identical to the shipped-columns path
    (property-tested per strategy).
    """

    machine_id: int
    path: str
    strategy: str
    seed: int
    num_machines: int
    params: SketchParams
    hash_seed: int = 0
    batch_size: int = DEFAULT_MAP_BATCH

    def run(self) -> MachineSketch:
        """Re-open the columnar directory and sketch this machine's rows."""
        from repro.coverage.io import open_columnar

        columns = open_columnar(Path(self.path))
        return build_machine_sketch(
            self.machine_id,
            self._own_batches(columns),
            self.params,
            hash_seed=self.hash_seed,
            batch_size=self.batch_size,
        )

    def _own_batches(self, columns) -> Iterator[EventBatch]:
        """This machine's rows of the mapped columns, as batches in file order.

        A ``row_range`` shard is one contiguous slice, so only that slice is
        read; every other strategy routes the whole file batch by batch and
        keeps the rows assigned to ``machine_id``.
        """
        from repro.distributed.partition import EdgePartitioner, row_range_bounds

        if self.strategy == "row_range":
            bounds = row_range_bounds(columns.num_edges, self.num_machines)
            rows = slice(bounds[self.machine_id], bounds[self.machine_id + 1])
            shard = EventBatch(columns.set_ids[rows], columns.elements[rows])
            yield from shard.chunks(self.batch_size)
            return
        partitioner = EdgePartitioner(
            self.num_machines,
            strategy=self.strategy,
            seed=self.seed,
            total_edges=columns.num_edges,
        )
        whole = EventBatch(columns.set_ids, columns.elements)
        for batch in whole.chunks(self.batch_size):
            assigned = partitioner.assign(batch.set_ids, batch.elements)
            rows = np.flatnonzero(assigned == self.machine_id)
            if len(rows):
                yield batch.take(rows)


#: Any picklable description of one machine's map work.
MapJob = MachineShardJob | ShardRecomputeJob


def execute_map_job(job: MapJob) -> MachineSketch:
    """Run one map job (top-level, so process pools can pickle it by name).

    The span is a no-op unless the job runs under a tracer — either the
    coordinator's (serial/thread executors) or the per-job capture the
    instrumented :class:`~repro.parallel.ParallelMapper` installs, whose
    records ride back with the result and stitch into one coherent trace.
    """
    with obs.span("map.machine", machine=job.machine_id):
        return job.run()
