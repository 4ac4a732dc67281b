"""Table 1 — k-cover rows.

Paper's claim (Table 1):

==================  ======  ============  ========  =======
algorithm           passes  approximation space     arrival
==================  ======  ============  ========  =======
Saha–Getoor [44]    1       1/4           O~(m)     set
Sieve [9]           1       1/2           O~(n+m)   set
**This paper**      1       1 − 1/e − ε   O~(n)     edge
McGregor–Vu [36]    1       1 − 1/e − ε   O~(n)     set/edge
==================  ======  ============  ========  =======

This benchmark measures all four on the same planted / Zipf / blog-watch
workloads (random edge / set order) and regenerates the table with *measured*
approximation ratios (vs. the planted optimum or greedy reference), passes
and peak stored items.  The expected shape: the sketch matches or beats the
¼ and ½ baselines on quality while storing a number of edges bounded by its
budget (independent of m), whereas the set-arrival baselines' space tracks
the ground set.
"""

from __future__ import annotations

import pytest

from benchmarks.common import print_table, suite_to_table, write_table
from repro.analysis import ExperimentSuite, run_solver_comparison
from repro.core.params import SketchParams

K = 10


def _solvers(instance):
    """Registry solver specs for the four Table 1 k-cover rows."""
    return [
        (
            "this-paper-sketch",
            "kcover/sketch",
            {"edge_budget": 6 * instance.n, "degree_cap": 40},
        ),
        ("saha-getoor-1/4", "kcover/saha-getoor"),
        ("sieve-streaming-1/2", "kcover/sieve", {"epsilon": 0.1}),
        ("mcgregor-vu", "kcover/mcgregor-vu", {"epsilon": 0.3}),
    ]


def _run_table(instances: dict[str, object], seed: int = 1) -> ExperimentSuite:
    suite = ExperimentSuite("table1-kcover")
    for name, instance in instances.items():
        run_solver_comparison(suite, instance, name, _solvers(instance), seed=seed)
    return suite


@pytest.mark.benchmark(group="table1-kcover")
def test_table1_kcover_rows(benchmark, kcover_planted, kcover_zipf, kcover_blogwatch):
    """Regenerate the k-cover rows of Table 1 (quality / passes / space)."""
    instances = {
        "planted": kcover_planted,
        "zipf": kcover_zipf,
        "blog_watch": kcover_blogwatch,
    }
    suite = benchmark.pedantic(_run_table, args=(instances,), rounds=1, iterations=1)
    table = suite_to_table(suite)
    print_table("Table 1 — k-cover (measured)", table)
    write_table(
        "table1_kcover",
        "Table 1 — k-cover rows (measured)",
        table,
        notes=[
            f"k = {K}; ratios are measured against the planted optimum (or greedy reference).",
            "Paper's claim: sketch achieves 1 − 1/e − ε in one pass with O~(n) space (edge arrival).",
        ],
    )
    # Shape assertions mirroring the paper's comparison.
    ratios = suite.aggregate("approx_ratio")
    assert ratios["this-paper-sketch"]["mean"] >= 0.80
    assert ratios["this-paper-sketch"]["mean"] >= ratios["saha-getoor-1/4"]["min"] - 0.10
    space = suite.aggregate("space_peak")
    # The sketch's space is bounded by its budget; the O~(m) baselines store more
    # on these m >> n workloads.
    assert space["this-paper-sketch"]["max"] <= space["sieve-streaming-1/2"]["mean"]


@pytest.mark.benchmark(group="table1-kcover")
def test_table1_kcover_streaming_throughput(benchmark, kcover_planted):
    """Update-time microbenchmark: edges/second through the sketch builder."""
    from repro.streaming import DEFAULT_BATCH_SIZE, EdgeStream

    instance = kcover_planted
    params = SketchParams.explicit(
        instance.n, instance.m, K, 0.2, edge_budget=6 * instance.n, degree_cap=40
    )
    # One pass of the stream (each pass of a random order is a new shuffle).
    stream = EdgeStream.from_graph(instance.graph, order="random", seed=3)
    batches = list(stream.iter_batches(DEFAULT_BATCH_SIZE))

    def build_once():
        from repro.core import StreamingSketchBuilder

        builder = StreamingSketchBuilder(params, seed=3)
        for batch in batches:
            builder.process_batch(batch)
        return builder.sketch()

    sketch = benchmark(build_once)
    assert sketch.num_edges <= params.edge_budget + params.eviction_slack
