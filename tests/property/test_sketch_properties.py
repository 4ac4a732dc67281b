"""Property-based tests for the sketch invariants (hypothesis)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coverage.bipartite import BipartiteGraph
from repro.core.hashing import UniformHash
from repro.core.params import SketchParams
from repro.core.sketch import apply_degree_cap, build_h_leq_n, build_hp
from repro.core.streaming_sketch import StreamingSketchBuilder
from repro.utils.rng import random_permutation, spawn_rng

from per_event import add_edges

set_systems = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=40), min_size=0, max_size=12),
    min_size=2,
    max_size=10,
)


def _graph(sets) -> BipartiteGraph:
    graph = BipartiteGraph.from_sets([list(s) for s in sets])
    return graph


@given(sets=set_systems, p=st.floats(min_value=0.05, max_value=1.0), seed=st.integers(0, 10))
@settings(max_examples=60, deadline=None)
def test_hp_is_element_induced_subgraph(sets, p, seed):
    graph = _graph(sets)
    hash_fn = UniformHash(seed)
    hp = build_hp(graph, p, hash_fn)
    # Every kept element hashes below p and keeps its full edge set.
    for element in hp.elements():
        assert hash_fn.value(element) <= p
        assert hp.sets_of(element) == graph.sets_of(element)
    # Every dropped element hashes above p.
    for element in graph.elements():
        if not hp.has_element(element):
            assert hash_fn.value(element) > p


@given(sets=set_systems, cap=st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_degree_cap_invariants(sets, cap):
    graph = _graph(sets)
    capped, truncated = apply_degree_cap(graph, cap)
    for element in graph.elements():
        original = graph.element_degree(element)
        new = capped.element_degree(element)
        assert new == min(original, cap)
        assert (element in truncated) == (original > cap)
    # The cap never adds edges.
    assert set(capped.edges()) <= set(graph.edges())


@given(
    sets=set_systems,
    budget=st.integers(min_value=4, max_value=60),
    cap=st.integers(min_value=1, max_value=8),
    seed=st.integers(0, 5),
)
@settings(max_examples=60, deadline=None)
def test_offline_h_leq_n_respects_budgets(sets, budget, cap, seed):
    graph = _graph(sets)
    if graph.num_elements == 0:
        return
    params = SketchParams.explicit(
        graph.num_sets, max(1, graph.num_elements), 2, 0.5, edge_budget=budget, degree_cap=cap
    )
    sketch = build_h_leq_n(graph, params, UniformHash(seed))
    # Degree cap holds everywhere; the budget is exceeded by at most one
    # element's capped degree (the admission that crossed the line).
    assert all(sketch.graph.element_degree(e) <= cap for e in sketch.graph.elements())
    assert sketch.num_edges <= budget + cap
    # Threshold consistency: kept elements hash at or below the threshold.
    for element, value in sketch.element_hashes.items():
        assert value <= sketch.threshold + 1e-12


@given(
    sets=set_systems,
    budget=st.integers(min_value=4, max_value=60),
    cap=st.integers(min_value=1, max_value=8),
    seed=st.integers(0, 5),
    order_seed=st.integers(0, 3),
)
@settings(max_examples=60, deadline=None)
def test_streaming_sketch_invariants(sets, budget, cap, seed, order_seed):
    graph = _graph(sets)
    if graph.num_elements == 0:
        return
    params = SketchParams.explicit(
        graph.num_sets, max(1, graph.num_elements), 2, 0.5, edge_budget=budget, degree_cap=cap
    )
    hash_fn = UniformHash(seed)
    builder = StreamingSketchBuilder(params, hash_fn=hash_fn)
    # Deterministic shuffle by order_seed, through the library's own RNG.
    edges = random_permutation(
        sorted(graph.edges()), spawn_rng(order_seed, "sketch-property-order")
    )
    add_edges(builder, edges)
    sketch = builder.sketch()
    # 1. Degree cap everywhere.
    assert all(sketch.graph.element_degree(e) <= cap for e in sketch.graph.elements())
    # 2. Bounded storage.
    assert sketch.num_edges <= params.edge_budget + params.eviction_slack
    # 3. Kept elements hash strictly below the admission threshold history.
    for element in sketch.graph.elements():
        assert hash_fn.value(element) < builder.admission_threshold or builder.evictions == 0
    # 4. Elements strictly below the final retained maximum keep min(deg, cap) edges.
    if sketch.element_hashes:
        threshold = max(sketch.element_hashes.values())
        for element in sketch.graph.elements():
            if hash_fn.value(element) < threshold:
                assert sketch.graph.element_degree(element) == min(
                    graph.element_degree(element), cap
                )
    # 5. Conservation: every seen edge was either stored now, discarded, or evicted.
    assert builder.edges_seen == len(edges)


@given(sets=set_systems, seed=st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_streaming_equals_offline_when_budget_is_large(sets, seed):
    graph = _graph(sets)
    if graph.num_elements == 0:
        return
    params = SketchParams.explicit(
        graph.num_sets,
        max(1, graph.num_elements),
        2,
        0.5,
        edge_budget=10_000,
        degree_cap=10_000,
    )
    hash_fn = UniformHash(seed)
    offline = build_h_leq_n(graph, params, hash_fn)
    builder = StreamingSketchBuilder(params, hash_fn=hash_fn)
    add_edges(builder, graph.edges())
    assert builder.sketch().graph == offline.graph == graph
