"""Distributed (MapReduce-style) coverage maximisation via composable sketches.

This subpackage implements the companion-paper application the SPAA paper
mentions in §1.3.2 and its conclusion: because every machine sketches its
shard with a shared hash function, the coordinator can merge the shard
sketches into a sketch of the full input and solve there — two rounds, with
per-machine space and communication both bounded by the sketch size.

The pipeline is batched end to end: :class:`EdgePartitioner` shards whole
columnar event batches in one vectorised assignment, workers ingest batches
through the sketch builder's native path, and every entry point of
:class:`DistributedKCover` ends in the same map/reduce: one job per machine
handed to the :mod:`repro.parallel` mapper, each sketch folded into a
streaming binary merge tree as it completes (:class:`StreamingMergeTree`,
O(log machines) resident, byte-identical to the one-shot
:func:`merge_machine_sketches`).  Sketches travel and fold as rank-sorted
``(rank, element, set)`` columns; the reduce builds its only graph once, at
the root.  In-memory input is routed once into
:class:`MachineShardJob` columns; :meth:`DistributedKCover.run_from_columnar`
ships zero edge bytes for every partition strategy: each
:class:`ShardRecomputeJob` carries path plus routing parameters, and its
worker re-opens the memory-mapped columnar directory and reads only its own
rows.
"""

from repro.distributed.coordinator import (
    DistributedKCover,
    DistributedRunReport,
    StreamingMergeTree,
    merge_machine_sketches,
)
from repro.distributed.partition import (
    PARTITION_STRATEGIES,
    EdgePartitioner,
    partition_edges,
    row_range_bounds,
    shard_sizes,
)
from repro.distributed.worker import (
    DEFAULT_MAP_BATCH,
    MachineShardJob,
    MachineSketch,
    ShardRecomputeJob,
    build_all_machine_sketches,
    build_machine_sketch,
    execute_map_job,
)

__all__ = [
    "DistributedKCover",
    "DistributedRunReport",
    "StreamingMergeTree",
    "merge_machine_sketches",
    "PARTITION_STRATEGIES",
    "EdgePartitioner",
    "partition_edges",
    "row_range_bounds",
    "shard_sizes",
    "DEFAULT_MAP_BATCH",
    "MachineSketch",
    "MachineShardJob",
    "ShardRecomputeJob",
    "execute_map_job",
    "build_all_machine_sketches",
    "build_machine_sketch",
]
