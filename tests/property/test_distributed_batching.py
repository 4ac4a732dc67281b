"""Property tests for the batched distributed pipeline.

Three invariants pin the distributed family to the scalar semantics:

1. **Sharding** — for every partition strategy, routing the edges batch by
   batch through :class:`EdgePartitioner` produces exactly the shards of the
   flat :func:`partition_edges` call, whatever the batch boundaries (the
   ``random`` strategy's generator consumes its bit stream identically
   either way).
2. **Pipeline** — a full distributed run is byte-identical (solution,
   coverage estimate, merged threshold, loads) whether the edges arrive as
   one in-memory list, as arbitrary batch chunks, or memory-mapped from a
   columnar directory.
3. **Composability** — under ``round_robin`` sharding, a run over 1, 2 or 8
   machines reports the same solution and coverage as a single-machine
   streaming run: the merge of the shard sketches *is* the streaming sketch
   of the whole input.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hashing import UniformHash
from repro.core.params import SketchParams
from repro.core.streaming_sketch import StreamingSketchBuilder
from repro.coverage.io import write_columnar
from repro.datasets import planted_kcover_instance
from repro.distributed import (
    PARTITION_STRATEGIES,
    DistributedKCover,
    EdgePartitioner,
    partition_edges,
)
from repro.offline.greedy import greedy_k_cover
from repro.streaming.batches import EventBatch

K = 4
SEED = 29


@pytest.fixture(scope="module")
def instance():
    return planted_kcover_instance(50, 1100, k=K, planted_coverage=0.85, seed=SEED)


@pytest.fixture(scope="module")
def edges(instance):
    return list(instance.graph.edges())


def _params(instance, budget=450, cap=20) -> SketchParams:
    return SketchParams.explicit(
        instance.n, instance.m, K, 0.2, edge_budget=budget, degree_cap=cap
    )


@pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
@pytest.mark.parametrize("batch_size", [1, 7, 1024])
def test_batched_sharding_equals_scalar(edges, strategy, batch_size):
    flat = partition_edges(edges, 4, strategy=strategy, seed=3)
    partitioner = EdgePartitioner(
        4, strategy=strategy, seed=3, total_edges=len(edges)
    )
    streamed: list[list[tuple[int, int]]] = [[] for _ in range(4)]
    for start in range(0, len(edges), batch_size):
        batch = EventBatch.from_edges(edges[start : start + batch_size])
        for machine, piece in enumerate(partitioner.split(batch)):
            streamed[machine].extend(
                zip(piece.set_ids.tolist(), piece.elements.tolist())
            )
    assert streamed == flat


@pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
def test_pipeline_identical_across_drive_modes(instance, edges, strategy, tmp_path):
    """run / run_batched / run_from_columnar: byte-identical reports."""
    write_columnar(edges, tmp_path / "w.cols", num_sets=instance.n)
    runner = DistributedKCover(
        instance.n, instance.m, k=K, num_machines=3, strategy=strategy,
        params=_params(instance), seed=SEED, batch_size=97,
    )
    reference = runner.run(edges)
    assert reference.merged_threshold < 1.0  # the budget truncates the merge

    columns = EventBatch.from_edges(edges)
    chunks = [
        columns.take(np.arange(start, min(start + 131, len(columns))))
        for start in range(0, len(columns), 131)
    ]
    batched = runner.run_batched(chunks, total_edges=len(columns))
    on_disk = runner.run_from_columnar(tmp_path / "w.cols")
    for candidate in (batched, on_disk):
        assert candidate.solution == reference.solution
        assert candidate.coverage_estimate == reference.coverage_estimate
        assert candidate.merged_threshold == reference.merged_threshold
        assert candidate.shard_edges == reference.shard_edges
        assert candidate.machine_stored_edges == reference.machine_stored_edges


@pytest.mark.parametrize("machines", [1, 2, 8])
def test_round_robin_matches_single_machine_streaming(instance, edges, machines):
    """Composability: distributing the stream does not change the answer.

    The merged coordinator sketch re-runs Algorithm 1 on the union, so a
    round-robin run over any number of machines must report the same
    solution — and the same coverage on the input graph — as one streaming
    pass over the whole input.  (The raw streaming sketch may retain up to
    ``eviction_slack`` edges beyond the budget that the strict offline
    re-trim discards, so graph-level equality is up to that slack; the
    greedy answers must agree.)
    """
    params = _params(instance)
    builder = StreamingSketchBuilder(params, hash_fn=UniformHash(SEED))
    builder.process_batch(EventBatch.from_edges(edges))
    sketch = builder.sketch()
    streaming_solution = greedy_k_cover(sketch.graph, K).selected
    report = DistributedKCover(
        instance.n, instance.m, k=K, num_machines=machines,
        strategy="round_robin", params=params, seed=SEED,
    ).run(edges)
    assert report.solution == streaming_solution
    assert instance.graph.coverage(report.solution) == instance.graph.coverage(
        streaming_solution
    )


def test_round_robin_reports_identical_across_machine_counts(instance, edges):
    """The coordinator's merged sketch does not depend on the machine count."""
    params = _params(instance)
    reports = [
        DistributedKCover(
            instance.n, instance.m, k=K, num_machines=machines,
            strategy="round_robin", params=params, seed=SEED,
        ).run(edges)
        for machines in (1, 2, 8)
    ]
    first = reports[0]
    for other in reports[1:]:
        assert other.solution == first.solution
        assert other.coverage_estimate == first.coverage_estimate
        assert other.merged_threshold == first.merged_threshold
        assert other.coordinator_edges == first.coordinator_edges
