"""Ablation — the element degree cap (H'_p vs H_p, Lemmas 2.4–2.6).

The cap ``n log(1/ε)/(εk)`` is what turns the sampled subgraph ``H_p`` into a
bounded-space sketch: without it, a few wildly popular elements can blow the
edge count up to Ω(nk) while contributing almost nothing to which solution is
best (Lemma 2.4 shows removing their surplus edges costs at most a 1 − ε
factor).  The ablation compares, on a heavy-tailed Zipf workload:

* the sketch with the paper's cap,
* the same budget without any cap (``H_p``-style), and
* an over-aggressive cap of 1,

reporting stored edges, number of truncated elements and end-to-end quality.
Expected shape: the capped sketch matches the uncapped one's quality while
storing (often far) fewer edges per admitted element; the cap-1 variant loses
little on k-cover quality (membership beyond one witness is redundant for
coverage) but destroys the degree information.
"""

from __future__ import annotations

import pytest

from benchmarks.common import print_table, write_table
from repro.core.params import SketchParams
from repro.core.streaming_sketch import StreamingSketchBuilder
from repro.datasets import zipf_instance
from repro.offline.greedy import greedy_k_cover
from repro.streaming import DEFAULT_BATCH_SIZE, EdgeStream
from repro.utils.tables import Table

K = 20
EPSILON = 0.5


def _run() -> Table:
    # Strongly skewed popularity so the head elements belong to a large
    # fraction of the sets — the regime where the cap actually binds.
    instance = zipf_instance(
        100, 5000, edges_per_set=120, zipf_exponent=1.6, k=K, seed=700
    )
    reference = greedy_k_cover(instance.graph, K).coverage
    # graph.edges() order, in columnar batches.
    stream = EdgeStream.from_graph(instance.graph, order="given")
    batches = list(stream.iter_batches(DEFAULT_BATCH_SIZE))
    paper_cap = SketchParams.theoretical_degree_cap(instance.n, K, EPSILON)
    variants = {
        "paper-cap": paper_cap,
        "no-cap": instance.n,  # an element can belong to at most n sets
        "cap-1": 1,
    }
    table = Table(
        [
            "variant",
            "degree_cap",
            "stored_edges",
            "admitted_elements",
            "edges_per_element",
            "truncated_elements",
            "approx_ratio",
        ]
    )
    for name, cap in variants.items():
        params = SketchParams.explicit(
            instance.n, instance.m, K, EPSILON, edge_budget=8 * instance.n, degree_cap=cap
        )
        builder = StreamingSketchBuilder(params, seed=701)
        for batch in batches:
            builder.process_batch(batch)
        sketch = builder.sketch()
        solution = greedy_k_cover(sketch.graph, K).selected
        achieved = instance.graph.coverage(solution)
        table.add_row(
            variant=name,
            degree_cap=cap,
            stored_edges=sketch.num_edges,
            admitted_elements=sketch.num_elements,
            edges_per_element=sketch.num_edges / max(1, sketch.num_elements),
            truncated_elements=len(sketch.truncated_elements),
            approx_ratio=achieved / reference,
        )
    return table


@pytest.mark.benchmark(group="ablation-degree-cap")
def test_degree_cap_ablation(benchmark):
    """The cap trades redundant edges for admitted elements at ~no quality cost."""
    table = benchmark.pedantic(_run, rounds=1, iterations=1)
    print_table("Ablation — degree cap (H'_p vs H_p)", table)
    write_table(
        "ablation_degree_cap",
        "Ablation — element degree cap (Lemma 2.4)",
        table,
        notes=[
            "Zipf workload: a few elements belong to a large fraction of the sets.",
            "Same edge budget for every variant; only the per-element cap changes.",
        ],
    )
    rows = {row["variant"]: row for row in table.rows}
    # The cap actually binds on this workload (some elements get truncated)...
    assert rows["paper-cap"]["truncated_elements"] > 0
    # ...letting the sketch admit strictly more elements for the same budget,
    # with fewer stored edges per element.
    assert rows["paper-cap"]["admitted_elements"] >= rows["no-cap"]["admitted_elements"]
    assert rows["paper-cap"]["edges_per_element"] <= rows["no-cap"]["edges_per_element"] + 1e-9
    # Quality is preserved (Lemma 2.4's (1 − ε) factor, with slack).
    assert rows["paper-cap"]["approx_ratio"] >= rows["no-cap"]["approx_ratio"] - 0.1
    assert rows["paper-cap"]["approx_ratio"] >= 0.75
