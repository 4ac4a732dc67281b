"""Throughput benchmarks for the offline reference path and disk ingestion.

Not a paper artifact, but the paper's pipeline is "sketch in the stream, then
run any offline coverage algorithm on the sketch" (Theorem 2.7), so once the
streaming side is vectorised the end-to-end cost is bounded by two things
this file measures and guards:

* **Greedy k-cover kernel** — the one lazy greedy, ``greedy_k_cover``, either
  unions Python sets or, given ``kernel=``, evaluates gains on the packed
  ``uint64`` word rows, refreshing a chunk of stale candidates per
  vectorised call.  The benchmark times both on a size sweep, asserts they
  select identically, and asserts the kernel run beats the set-based one by
  ≥ 3x on the largest instance.
* **Disk ingestion** — ``read_edge_list`` parses text into Python tuples
  before a stream ever sees an edge; the columnar loader memory-maps uint64
  columns and feeds ``EventBatch`` chunks straight into the sketch builder.
  The benchmark measures end-to-end events/sec (file on disk → built sketch)
  and asserts the columnar route wins by ≥ 5x.

Both tables land in ``benchmarks/results/offline_throughput.json`` (archived
by the CI bench-smoke job alongside ``update_time.json``).
"""

from __future__ import annotations

import json
import time

import pytest

from benchmarks.common import RESULTS_DIR, print_table, write_table
from repro.core.params import SketchParams
from repro.core.streaming_sketch import StreamingSketchBuilder
from repro.coverage.bitset import BitsetCoverage
from repro.coverage.io import columnar_from_edge_list, open_columnar, read_edge_list, write_edge_list
from repro.datasets import zipf_instance
from repro.offline.greedy import greedy_k_cover
from repro.streaming.stream import EdgeStream
from repro.utils.tables import Table

K = 16
#: (num_sets, num_elements, edges_per_set) greedy sweep; the last row is the
#: one the speedup assertions bite on.
GREEDY_SWEEP = (
    (250, 4000, 150),
    (600, 10_000, 180),
    (2000, 24_000, 260),
)
#: Minimum lazy-kernel over set-based greedy speedup on the largest instance.
MIN_GREEDY_SPEEDUP = 3.0
#: Minimum columnar-over-text ingestion events/sec ratio.
MIN_INGEST_SPEEDUP = 5.0
INGEST_SIZES = (600, 20_000, 300)  # (n, m, edges_per_set) for the disk sweep
INGEST_BATCH = 4096


def _best_of(callable_, repeats: int = 3) -> tuple[float, object]:
    """Best-of-N wall time (seconds) plus the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


def _merge_results(section: str, payload: dict) -> None:
    """Merge one section into offline_throughput.json (tests run separately)."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / "offline_throughput.json"
    document = {}
    if path.is_file():
        document = json.loads(path.read_text(encoding="utf-8"))
    document[section] = payload
    path.write_text(json.dumps(document, indent=2), encoding="utf-8")


def _greedy_table() -> Table:
    table = Table(
        [
            "n",
            "m",
            "edges",
            "pack_seconds",
            "set_greedy_s",
            "kernel_lazy_s",
            "speedup_lazy_kernel_vs_set_greedy",
        ]
    )
    for index, (n, m, edges_per_set) in enumerate(GREEDY_SWEEP):
        instance = zipf_instance(n, m, edges_per_set=edges_per_set, k=K, seed=1400 + index)
        graph = instance.graph
        pack_start = time.perf_counter()
        kernel = BitsetCoverage(graph)
        pack_seconds = time.perf_counter() - pack_start
        timings = {}
        selections = {}
        timings["set_greedy_s"], reference = _best_of(lambda: greedy_k_cover(graph, K))
        selections["set_greedy_s"] = (list(reference.selected), reference.coverage)
        timings["kernel_lazy_s"], packed_run = _best_of(
            lambda: greedy_k_cover(graph, K, kernel=kernel)
        )
        selections["kernel_lazy_s"] = (list(packed_run.selected), packed_run.coverage)
        # Theorem 2.7 only needs *a* greedy: the kernel must pick the same sets.
        assert len({repr(picked) for picked in selections.values()}) == 1, selections
        table.add_row(
            n=n,
            m=m,
            edges=graph.num_edges,
            pack_seconds=pack_seconds,
            speedup_lazy_kernel_vs_set_greedy=(
                timings["set_greedy_s"] / timings["kernel_lazy_s"]
            ),
            **timings,
        )
    return table


@pytest.mark.benchmark(group="offline-throughput")
def test_lazy_kernel_greedy_speedup(benchmark):
    """Lazy kernel greedy ≥ 3x over the set-based greedy, same selections."""
    table = benchmark.pedantic(_greedy_table, rounds=1, iterations=1)
    print_table("Greedy k-cover: set-based vs packed kernel", table)
    write_table(
        "offline_throughput_greedy",
        "Offline greedy throughput — word-packed kernel + CELF lazy selection",
        table,
        notes=[
            f"k = {K}; zipf instances; times are best-of-3 wall clock for one "
            "full greedy_k_cover call (packing cost reported separately).",
            "The set-based and kernel greedy select identical sets (asserted).",
            "The speedup column is the set-based greedy over the kernel greedy.",
        ],
    )
    _merge_results(
        "greedy",
        {
            "k": K,
            "min_speedup": MIN_GREEDY_SPEEDUP,
            "rows": table.rows,
        },
    )
    largest = table.rows[-1]
    assert largest["speedup_lazy_kernel_vs_set_greedy"] >= MIN_GREEDY_SPEEDUP


def _build_sketch_from_text(path, params, num_sets: int) -> StreamingSketchBuilder:
    pairs = read_edge_list(path)
    edges = [(int(s), int(e)) for s, e in pairs]
    builder = StreamingSketchBuilder(params, seed=9)
    stream = EdgeStream(edges, num_sets=num_sets, order="given")
    for batch in stream.iter_batches(INGEST_BATCH):
        builder.process_batch(batch)
    return builder


def _build_sketch_from_columnar(path, params) -> StreamingSketchBuilder:
    builder = StreamingSketchBuilder(params, seed=9)
    stream = EdgeStream.from_columnar(open_columnar(path), order="given")
    for batch in stream.iter_batches(INGEST_BATCH):
        builder.process_batch(batch)
    return builder


@pytest.mark.benchmark(group="offline-throughput")
def test_columnar_ingestion_speedup(benchmark, tmp_path):
    """Disk → sketch via mmap'd columns ≥ 5x faster than read_edge_list."""
    n, m, edges_per_set = INGEST_SIZES
    instance = zipf_instance(n, m, edges_per_set=edges_per_set, k=K, seed=1900)
    graph = instance.graph
    text_path = tmp_path / "edges.tsv"
    write_edge_list(graph.edges(), text_path)
    columnar_path = tmp_path / "edges.cols"
    columnar_from_edge_list(text_path, columnar_path)
    # The sketch budget mirrors bench_update_time (6n edges): a long stream
    # against a fixed budget is the workload the paper's O~(n) space story is
    # about, and it keeps the shared sketch-admission cost from hiding the
    # ingestion gap being measured.
    params = SketchParams.explicit(
        graph.num_sets,
        max(1, graph.num_elements),
        K,
        0.2,
        edge_budget=6 * graph.num_sets,
        degree_cap=40,
    )

    def run_both():
        text_seconds, via_text = _best_of(
            lambda: _build_sketch_from_text(text_path, params, graph.num_sets), repeats=2
        )
        columnar_seconds, via_columns = _best_of(
            lambda: _build_sketch_from_columnar(columnar_path, params), repeats=2
        )
        # Same file, same order, same budgets: identical sketches.
        assert via_columns.describe() == via_text.describe()
        return text_seconds, columnar_seconds

    text_seconds, columnar_seconds = benchmark.pedantic(run_both, rounds=1, iterations=1)
    edges = graph.num_edges
    table = Table(
        [
            "n",
            "m",
            "edges",
            "text_events_per_sec",
            "columnar_events_per_sec",
            "speedup",
        ]
    )
    table.add_row(
        n=n,
        m=m,
        edges=edges,
        text_events_per_sec=edges / text_seconds,
        columnar_events_per_sec=edges / columnar_seconds,
        speedup=text_seconds / columnar_seconds,
    )
    print_table("Disk ingestion: read_edge_list vs memory-mapped columnar", table)
    write_table(
        "offline_throughput_ingestion",
        "Disk → sketch ingestion — text edge list vs memory-mapped columns",
        table,
        notes=[
            "End-to-end: open the file, build the stream, drive EventBatch "
            f"chunks of {INGEST_BATCH} through the sketch builder.",
            "Both routes produce byte-identical sketches (asserted).",
            "The text route pays line parsing plus per-edge tuple "
            "materialisation; the columnar route maps uint64 columns and "
            "slices batches straight from the page cache.",
        ],
    )
    _merge_results(
        "ingestion",
        {
            "batch_size": INGEST_BATCH,
            "min_speedup": MIN_INGEST_SPEEDUP,
            "rows": table.rows,
        },
    )
    assert text_seconds / columnar_seconds >= MIN_INGEST_SPEEDUP
