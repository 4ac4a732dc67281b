"""Distributed throughput — the columnar map phase and the streaming merge tree.

The two-round simulation's round 1 (shard the edges, build one ``H_{<=n}``
sketch per machine) routes whole ``EventBatch`` columns through one
vectorised shard assignment and the sketch builder's native
``process_batch``.  This benchmark times two drives of the same workload:

* **batched columnar path** — :meth:`DistributedKCover.run_from_columnar`
  over a memory-mapped columnar directory, no per-edge objects anywhere
  (serial mapper — the reference pipeline);
* **threaded recompute jobs** — the same columnar workload under a thread
  executor: every machine's zero-ship
  :class:`~repro.distributed.worker.ShardRecomputeJob` runs on its own
  thread and the coordinator folds sketches into the incremental merge tree
  as they complete, holding only O(log machines) sketches resident.

Both drives, and machine sketches built from :func:`partition_edges` tuple
shards, produce byte-identical runs (asserted here and property-tested in
``tests/property/test_distributed_batching.py`` /
``tests/property/test_streaming_reduce.py``).  CI gates: the merge tree must
run ``machines - 1`` pairwise merges, and its peak resident sketch count
must stay below the machine count once there are enough machines for the
logarithm to bite (>= 4; a binary counter over 2 leaves still holds 2).
"""

from __future__ import annotations

import json
import time

import pytest

from benchmarks.common import RESULTS_DIR, print_table, write_table
from repro.core.hashing import UniformHash
from repro.core.params import SketchParams
from repro.core.streaming_sketch import StreamingSketchBuilder
from repro.coverage.io import write_columnar
from repro.datasets import planted_kcover_instance
from repro.distributed import (
    DistributedKCover,
    MachineSketch,
    merge_machine_sketches,
    partition_edges,
)
from repro.offline.greedy import greedy_k_cover
from repro.streaming.batches import EventBatch
from repro.utils.tables import Table

K = 10
N = 100
M = 150_000
MACHINES = (2, 4, 8)
STRATEGY = "random"
SEED = 1700


def _tuple_shard_sketches(edges, params, machines: int):
    """The reference the drives must match, untimed: :func:`partition_edges`
    tuple shards, each fed to its machine's builder as one batch and
    exported as the worker would."""
    sketches = []
    shards = partition_edges(edges, machines, strategy=STRATEGY, seed=SEED)
    for machine_id, shard in enumerate(shards):
        builder = StreamingSketchBuilder(params, hash_fn=UniformHash(SEED))
        builder.process_batch(EventBatch.from_edges(shard))
        sketches.append(
            MachineSketch(
                machine_id=machine_id,
                columns=builder.columns(),
                params=params,
                edges_processed=builder.edges_seen,
                hash_seed=SEED,
            )
        )
    return sketches


def _throughput_table(tmp_path) -> Table:
    instance = planted_kcover_instance(N, M, k=K, seed=SEED)
    edges = list(instance.graph.edges())
    params = SketchParams.explicit(
        instance.n, instance.m, K, 0.2, edge_budget=6 * instance.n, degree_cap=40
    )
    columnar_dir = tmp_path / "workload.cols"
    write_columnar(edges, columnar_dir, num_sets=instance.n)

    table = Table(
        [
            "machines",
            "input_edges",
            "batched_edges_per_sec",
            "streaming_edges_per_sec",
            "peak_resident_sketches",
            "merge_count",
            "max_machine_load",
        ]
    )
    for machines in MACHINES:
        runner = DistributedKCover(
            instance.n, instance.m, k=K, num_machines=machines,
            strategy=STRATEGY, params=params, seed=SEED,
        )
        start = time.perf_counter()
        report = runner.run_from_columnar(columnar_dir)
        batched_seconds = time.perf_counter() - start

        # The same zero-ship ShardRecomputeJobs (path + routing only) on a
        # thread per machine; the merge tree folds sketches in completion
        # order.
        streaming_runner = DistributedKCover(
            instance.n, instance.m, k=K, num_machines=machines,
            strategy=STRATEGY, params=params, seed=SEED,
            executor="thread", max_workers=machines,
        )
        start = time.perf_counter()
        streaming_report = streaming_runner.run_from_columnar(columnar_dir)
        streaming_seconds = time.perf_counter() - start

        # Identical outcomes: both batched runs must land on the very greedy
        # solution the tuple shards lead to.
        reference = _tuple_shard_sketches(edges, params, machines)
        merged = merge_machine_sketches(reference, params, hash_seed=SEED)
        assert greedy_k_cover(merged.graph, K).selected == report.solution
        assert [ms.edges_stored for ms in reference] == report.machine_stored_edges
        assert streaming_report.solution == report.solution
        assert streaming_report.merged_threshold == report.merged_threshold
        assert streaming_report.machine_stored_edges == report.machine_stored_edges
        assert streaming_report.shard_edges == report.shard_edges
        table.add_row(
            machines=machines,
            input_edges=len(edges),
            batched_edges_per_sec=len(edges) / batched_seconds,
            streaming_edges_per_sec=len(edges) / streaming_seconds,
            peak_resident_sketches=streaming_report.peak_resident_sketches,
            merge_count=streaming_report.merge_count,
            max_machine_load=report.max_machine_load,
        )
    return table


@pytest.mark.benchmark(group="distributed-throughput")
def test_batched_map_phase_and_merge_tree(benchmark, tmp_path):
    """The columnar drives match the tuple shards; the merge tree stays
    O(log machines) resident."""
    table = benchmark.pedantic(_throughput_table, args=(tmp_path,), rounds=1, iterations=1)
    print_table("Distributed map phase — columnar batches", table)
    write_table(
        "distributed_throughput",
        "Distributed throughput, columnar batches and the streaming merge tree",
        table,
        notes=[
            f"planted k-cover, n = {N}, ~{M} edges, sketch budget 6·n per machine, "
            f"'{STRATEGY}' sharding.",
            "The batched columns time a full run_from_columnar (sharding, map, "
            "merge, greedy).",
            "The streaming columns run the zero-ship ShardRecomputeJobs "
            "under a thread executor; peak_resident_sketches is the merge "
            "tree's sketch high-water mark (O(log machines)).",
            "All paths are byte-identical (asserted per row and property-tested).",
        ],
    )
    peaks = table.column("peak_resident_sketches")
    merges = table.column("merge_count")
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "distributed_throughput.json").write_text(
        json.dumps(
            {
                "strategy": STRATEGY,
                "machines": list(MACHINES),
                "rows": table.rows,
                # Top-level scalars (collect_results folds these into the
                # trajectory), all at the largest machine count.
                "batched_edges_per_sec": float(table.column("batched_edges_per_sec")[-1]),
                "streaming_peak_resident_sketches": int(peaks[-1]),
                "streaming_merge_count": int(merges[-1]),
            },
            indent=2,
        ),
        encoding="utf-8",
    )
    # O(log M) residency: below the machine count wherever log2 can bite
    # (a binary counter over 2 leaves still holds both before carrying).
    for machines, peak, merge_count in zip(MACHINES, peaks, merges):
        assert merge_count == max(1, machines - 1)
        if machines >= 4:
            assert peak < machines, (machines, peak)
