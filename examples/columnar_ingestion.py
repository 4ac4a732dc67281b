"""Disk-to-solution pipeline: columnar ingestion + word-packed lazy greedy.

Demonstrates the large-workload fast path end to end:

1. generate a zipf workload and persist it as a memory-mappable columnar
   directory (uint64 set/element columns + JSON metadata),
2. stream it back with ``EdgeStream.from_columnar`` — batches are sliced
   straight from the mapped arrays, no per-edge Python tuples — into the
   paper's streaming sketch,
3. run the offline greedy on the sketch through the word-packed lazy
   coverage kernel, and compare against the full-instance reference.

Run with ``python examples/columnar_ingestion.py`` (add ``PYTHONPATH=src``
when not installed).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.coverage.bitset import BitsetCoverage
from repro.coverage.io import open_columnar, write_columnar
from repro.core.params import SketchParams
from repro.core.streaming_sketch import StreamingSketchBuilder
from repro.datasets import zipf_instance
from repro.offline.greedy import greedy_k_cover
from repro.streaming.stream import EdgeStream

K = 10
BATCH = 4096


def main() -> None:
    instance = zipf_instance(400, 12_000, edges_per_set=150, k=K, seed=29)
    graph = instance.graph

    with tempfile.TemporaryDirectory() as tmp:
        columnar_path = Path(tmp) / "workload.cols"
        count = write_columnar(graph.edges(), columnar_path, num_sets=graph.num_sets)
        print(f"persisted {count} edges as columnar storage at {columnar_path.name}")

        columns = open_columnar(columnar_path)
        params = SketchParams.scaled(
            columns.num_sets, max(1, columns.num_elements), K, 0.2, scale=0.1
        )
        builder = StreamingSketchBuilder(params, seed=29)
        stream = EdgeStream.from_columnar(columns, order="given")
        for batch in stream.iter_batches(BATCH):
            builder.process_batch(batch)
        sketch = builder.sketch()
        print(
            f"sketch: {sketch.num_edges} edges kept of {count} "
            f"(budget {params.edge_budget}), threshold p*={sketch.threshold:.4f}"
        )

        # Offline phase on the sketch, vectorised: word-packed lanes + lazy greedy.
        sketch_kernel = BitsetCoverage(sketch.graph)
        sketch_pick = greedy_k_cover(sketch.graph, K, kernel=sketch_kernel)

        # Reference: the same kernel greedy on the full instance.
        full_kernel = BitsetCoverage(graph)
        reference = greedy_k_cover(graph, K, kernel=full_kernel)

        achieved = graph.coverage(sketch_pick.selected)
        print(
            f"greedy on sketch covers {achieved} of {graph.num_elements} elements "
            f"({achieved / max(1, reference.coverage):.3f} of the full-instance greedy)"
        )
        print(
            f"kernel evaluations: sketch={sketch_pick.evaluations}, "
            f"full={reference.evaluations} (eager would be {K * graph.num_sets})"
        )


if __name__ == "__main__":
    main()
