"""Appendix D / Theorem D.2 — the ℓ0-sketch baseline needs O~(nk) space.

The benchmark compares, for a sweep of k:

* the per-set KMV capacity the union-bound argument of Appendix D requires
  (and hence the total words of the ℓ0 oracle), against
* the edge budget of the paper's H_{<=n} sketch (Theorem 3.1's O~(n)),

and measures the quality of greedy k-cover run over each summary.  Expected
shape: both summaries deliver near-greedy quality, but the ℓ0 route's space
grows linearly with k while the paper's sketch stays flat.
"""

from __future__ import annotations

import pytest

from benchmarks.common import print_table, write_table
from repro.core import StreamingKCover
from repro.core.l0 import L0CoverageOracle, l0_greedy_k_cover
from repro.core.params import SketchParams
from repro.datasets import planted_kcover_instance
from repro.offline.greedy import greedy_k_cover
from repro.streaming import DEFAULT_BATCH_SIZE, EdgeStream, StreamingRunner
from repro.utils.tables import Table

K_SWEEP = (4, 8, 16)
EPSILON = 0.2


def _run() -> Table:
    table = Table(
        [
            "k",
            "l0_words_total",
            "l0_ratio",
            "sketch_edges_budget",
            "sketch_space_peak",
            "sketch_ratio",
        ]
    )
    for index, k in enumerate(K_SWEEP):
        instance = planted_kcover_instance(60, 3000, k=k, seed=1000 + index)
        reference = greedy_k_cover(instance.graph, k).coverage

        capacity = L0CoverageOracle.capacity_for_union_bound(instance.n, k, EPSILON)
        l0_oracle = L0CoverageOracle(instance.n, EPSILON, capacity=capacity, seed=index)
        for batch in EdgeStream.from_graph(instance.graph).iter_batches(DEFAULT_BATCH_SIZE):
            l0_oracle.process_batch(batch)
        l0_solution, _ = l0_greedy_k_cover(l0_oracle, k)
        l0_value = instance.graph.coverage(l0_solution)

        params = SketchParams.explicit(
            instance.n, instance.m, k, EPSILON, edge_budget=6 * instance.n, degree_cap=40
        )
        sketch_algo = StreamingKCover(instance.n, instance.m, k=k, params=params, seed=index)
        sketch_report = StreamingRunner(instance.graph).run(
            sketch_algo, EdgeStream.from_graph(instance.graph, order="random", seed=index)
        )

        table.add_row(
            k=k,
            l0_words_total=l0_oracle.space.peak,
            l0_ratio=l0_value / reference,
            sketch_edges_budget=params.edge_budget,
            sketch_space_peak=sketch_report.space_peak,
            sketch_ratio=sketch_report.coverage / reference,
        )
    return table


@pytest.mark.benchmark(group="l0-baseline")
def test_l0_space_grows_with_k_but_sketch_does_not(benchmark):
    """Appendix D's O~(nk) space versus Theorem 3.1's O~(n)."""
    table = benchmark.pedantic(_run, rounds=1, iterations=1)
    print_table("Appendix D — ℓ0 baseline vs the paper's sketch", table)
    write_table(
        "l0_baseline",
        "Appendix D — ℓ0-sketch baseline (O~(nk)) vs H_{<=n} (O~(n))",
        table,
        notes=[
            f"ε = {EPSILON}; ℓ0 capacity includes the union-bound factor of Theorem D.2.",
        ],
    )
    l0_space = table.column("l0_words_total")
    sketch_space = table.column("sketch_space_peak")
    # ℓ0 storage grows ~linearly in k; the paper's sketch stays flat.
    assert l0_space[-1] >= 3.0 * l0_space[0]
    assert max(sketch_space) <= 1.15 * min(sketch_space)
    # Both summaries are accurate enough for near-greedy quality.
    assert min(table.column("l0_ratio")) >= 0.75
    assert min(table.column("sketch_ratio")) >= 0.8
