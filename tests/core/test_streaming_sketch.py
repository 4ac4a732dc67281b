"""Unit tests for repro.core.streaming_sketch (Algorithm 2)."""

from __future__ import annotations

import pytest

from repro.core.hashing import UniformHash
from repro.core.params import SketchParams
from repro.core.sketch import build_h_leq_n
from repro.core.streaming_sketch import StreamingSketchBuilder
from repro.coverage.bipartite import BipartiteGraph
from repro.errors import SpecError
from repro.streaming.events import EdgeArrival
from repro.streaming.stream import EdgeStream

from per_event import add_edges


def _columns(columns):
    """What a :class:`SketchColumns` holds, as plain values."""
    return (
        columns.ranks.tolist(),
        columns.elements.tolist(),
        columns.set_ids.tolist(),
        columns.threshold,
        columns.truncated.tolist(),
    )


def _params(instance, *, edge_budget, degree_cap, slack=None):
    return SketchParams.explicit(
        instance.n,
        instance.m,
        4,
        0.3,
        edge_budget=edge_budget,
        degree_cap=degree_cap,
        eviction_slack=slack,
    )


class TestBasicStreaming:
    def test_whole_input_fits(self, figure1_graph):
        params = SketchParams.explicit(4, 8, 2, 0.5, edge_budget=1000, degree_cap=100)
        builder = StreamingSketchBuilder(params, seed=1)
        add_edges(builder, figure1_graph.edges())
        sketch = builder.sketch()
        assert sketch.graph == figure1_graph
        assert sketch.threshold == 1.0
        assert builder.evictions == 0

    def test_duplicate_edges_ignored(self, figure1_graph):
        params = SketchParams.explicit(4, 8, 2, 0.5, edge_budget=1000, degree_cap=100)
        builder = StreamingSketchBuilder(params, seed=1)
        edges = list(figure1_graph.edges())
        add_edges(builder, edges + edges)
        assert builder.sketch().num_edges == figure1_graph.num_edges

    def test_degree_cap_enforced(self, figure1_graph):
        params = SketchParams.explicit(4, 8, 2, 0.5, edge_budget=1000, degree_cap=1)
        builder = StreamingSketchBuilder(params, seed=1)
        add_edges(builder, figure1_graph.edges())
        sketch = builder.sketch()
        assert all(sketch.graph.element_degree(e) <= 1 for e in sketch.graph.elements())

    def test_process_event_objects(self, figure1_graph):
        params = SketchParams.explicit(4, 8, 2, 0.5, edge_budget=1000, degree_cap=100)
        builder = StreamingSketchBuilder(params, seed=1)
        for set_id, element in figure1_graph.edges():
            builder.process(EdgeArrival(set_id, element))
        assert builder.edges_seen == figure1_graph.num_edges

    def test_space_meter_charged(self, figure1_graph):
        params = SketchParams.explicit(4, 8, 2, 0.5, edge_budget=1000, degree_cap=100)
        builder = StreamingSketchBuilder(params, seed=1)
        add_edges(builder, figure1_graph.edges())
        assert builder.space.peak == figure1_graph.num_edges

    @pytest.mark.parametrize("edge", [(True, 2), (1, True)], ids=["set", "element"])
    def test_bool_ids_raise_what_the_graph_raises(self, edge):
        with pytest.raises(TypeError) as expected:
            BipartiteGraph(4).add_edge(*edge)
        params = SketchParams.explicit(4, 8, 2, 0.5, edge_budget=1000, degree_cap=100)
        builder = StreamingSketchBuilder(params, seed=1)
        with pytest.raises(TypeError, match=str(expected.value)):
            builder.add_edge(*edge)
        assert builder.describe() == StreamingSketchBuilder(params, seed=1).describe()

    def test_columns_are_shared_until_the_store_changes(self, figure1_graph):
        params = SketchParams.explicit(4, 8, 2, 0.5, edge_budget=3, degree_cap=2)
        builder = StreamingSketchBuilder(params, seed=1)
        edges = list(figure1_graph.edges())
        for count, edge in enumerate(edges, 1):
            before = builder.columns()
            assert builder.columns() is before
            builder.add_edge(*edge)
            after = builder.columns()
            fresh = StreamingSketchBuilder(params, seed=1)
            add_edges(fresh, edges[:count])
            assert _columns(after) == _columns(fresh.columns())
            if _columns(after) != _columns(before):
                assert after is not before
        assert builder.evictions > 0

    def test_invalid_rank_source(self, figure1_graph):
        params = SketchParams.explicit(4, 8, 2, 0.5, edge_budget=10, degree_cap=3)
        with pytest.raises(ValueError):
            StreamingSketchBuilder(params, rank_source="oracle")

    @pytest.mark.parametrize("rank_source", ["hash", "permutation"])
    def test_hash_family_without_value_many_rejected(self, rank_source):
        class ScalarHash:
            def value(self, element):
                return 0.5

            def rank(self, element):
                return 1 << 63

        params = SketchParams.explicit(4, 8, 2, 0.5, edge_budget=10, degree_cap=3)
        with pytest.raises(SpecError, match="ScalarHash has no value_many"):
            StreamingSketchBuilder(params, hash_fn=ScalarHash(), rank_source=rank_source)


class TestEviction:
    def test_stored_edges_bounded(self, planted_kcover):
        params = _params(planted_kcover, edge_budget=150, degree_cap=8)
        builder = StreamingSketchBuilder(params, seed=2)
        limit = params.edge_budget + params.eviction_slack
        for set_id, element in planted_kcover.graph.edges():
            builder.add_edge(set_id, element)
            assert builder.stored_edges <= limit + params.degree_cap
        assert builder.evictions > 0
        assert builder.sketch().num_edges <= limit

    def test_admission_threshold_monotone_decreasing(self, planted_kcover):
        params = _params(planted_kcover, edge_budget=100, degree_cap=8)
        builder = StreamingSketchBuilder(params, seed=2)
        last = 1.0
        for set_id, element in planted_kcover.graph.edges():
            builder.add_edge(set_id, element)
            assert builder.admission_threshold <= last + 1e-15
            last = builder.admission_threshold
        assert last < 1.0

    def test_evicted_elements_never_readmitted(self, planted_kcover):
        params = _params(planted_kcover, edge_budget=100, degree_cap=8)
        hash_fn = UniformHash(7)
        builder = StreamingSketchBuilder(params, hash_fn=hash_fn, seed=7)
        # Stream every edge twice in different orders: any evicted element
        # must stay out (its hash is >= the admission threshold).
        edges = list(planted_kcover.graph.edges())
        add_edges(builder, edges)
        add_edges(builder, reversed(edges))
        sketch = builder.sketch()
        for element in sketch.graph.elements():
            assert hash_fn.value(element) <= sketch.threshold

    def test_retained_elements_have_full_capped_degree(self, planted_kcover):
        """Key equivalence invariant with the offline construction."""
        params = _params(planted_kcover, edge_budget=200, degree_cap=5)
        hash_fn = UniformHash(13)
        builder = StreamingSketchBuilder(params, hash_fn=hash_fn, seed=13)
        add_edges(builder, planted_kcover.graph.edges())
        sketch = builder.sketch()
        threshold = max(sketch.element_hashes.values())
        for element in sketch.graph.elements():
            if hash_fn.value(element) < threshold:  # strictly inside the sketch
                true_degree = planted_kcover.graph.element_degree(element)
                assert sketch.graph.element_degree(element) == min(
                    true_degree, params.degree_cap
                )

    def test_order_invariance_of_retained_element_set(self, planted_kcover):
        params = _params(planted_kcover, edge_budget=150, degree_cap=6)
        hash_fn = UniformHash(21)
        sketches = []
        for order_seed in (1, 2, 3):
            stream = EdgeStream.from_graph(planted_kcover.graph, order="random", seed=order_seed)
            builder = StreamingSketchBuilder(params, hash_fn=hash_fn)
            for event in stream:
                builder.process(event)
            sketches.append(builder.sketch())
        element_sets = [frozenset(s.graph.elements()) for s in sketches]
        # The retained *elements* depend only on the hash, not the order
        # (which edges of a capped element are kept may differ).
        assert element_sets[0] == element_sets[1] == element_sets[2]

    def test_matches_offline_construction_element_set(self, planted_kcover):
        params = _params(planted_kcover, edge_budget=180, degree_cap=7)
        hash_fn = UniformHash(31)
        offline = build_h_leq_n(planted_kcover.graph, params, hash_fn)
        builder = StreamingSketchBuilder(params, hash_fn=hash_fn)
        add_edges(builder, planted_kcover.graph.edges())
        streaming = builder.sketch()
        offline_elements = set(offline.graph.elements())
        streaming_elements = set(streaming.graph.elements())
        # The streaming construction may keep slightly more elements (its
        # stopping rule allows the extra eviction slack) but never fewer, and
        # everything it keeps beyond the offline sketch hashes above the
        # offline threshold.
        assert offline_elements <= streaming_elements
        extra = streaming_elements - offline_elements
        assert all(hash_fn.value(e) >= offline.threshold for e in extra)


class TestPermutationRankSource:
    def test_permutation_mode_respects_budget(self, planted_kcover):
        params = _params(planted_kcover, edge_budget=150, degree_cap=8)
        builder = StreamingSketchBuilder(params, seed=5, rank_source="permutation")
        add_edges(builder, planted_kcover.graph.edges())
        sketch = builder.sketch()
        assert sketch.num_edges <= params.edge_budget + params.eviction_slack

    def test_unsampled_elements_discarded(self):
        # Tiny sample: only `sample_size` elements can ever be admitted.
        params = SketchParams.explicit(
            5, 1000, 2, 0.5, edge_budget=10, degree_cap=2, eviction_slack=0
        )
        builder = StreamingSketchBuilder(params, seed=3, rank_source="permutation")
        for element in range(1000):
            builder.add_edge(element % 5, element)
        assert builder.sketch().num_elements <= params.sample_size

    def test_describe_reports_rank_source(self, figure1_graph):
        params = SketchParams.explicit(4, 8, 2, 0.5, edge_budget=10, degree_cap=2)
        builder = StreamingSketchBuilder(params, seed=3, rank_source="permutation")
        assert builder.describe()["rank_source"] == "permutation"


class TestBatchProcessing:
    """process_batch must be byte-identical to the scalar edge path."""

    def _drain(self, builder, instance, *, batch_size=None, order="random", seed=5):
        stream = EdgeStream.from_graph(instance.graph, order=order, seed=seed)
        if batch_size is None:
            for event in stream:
                builder.process(event)
        else:
            for batch in stream.iter_batches(batch_size):
                builder.process_batch(batch)

    @pytest.mark.parametrize("batch_size", [1, 7, 1024])
    def test_matches_scalar_with_evictions(self, planted_kcover, batch_size):
        params = _params(planted_kcover, edge_budget=120, degree_cap=8)
        scalar = StreamingSketchBuilder(params, seed=3)
        batched = StreamingSketchBuilder(params, seed=3)
        self._drain(scalar, planted_kcover)
        self._drain(batched, planted_kcover, batch_size=batch_size)
        assert batched.describe() == scalar.describe()
        assert sorted(batched.sketch().graph.edges()) == sorted(scalar.sketch().graph.edges())
        assert batched.space.peak == scalar.space.peak

    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_permutation_rank_source_is_vectorised_and_identical(
        self, planted_kcover, batch_size
    ):
        import numpy as np

        params = _params(planted_kcover, edge_budget=120, degree_cap=8)
        scalar = StreamingSketchBuilder(params, seed=3, rank_source="permutation")
        batched = StreamingSketchBuilder(params, seed=3, rank_source="permutation")
        # The dense rank table serves the batched path natively (no scalar
        # fallback): one gather ranks a whole element column.
        column = np.array([0, 1, 2, 10**9], dtype=np.uint64)
        ranks = batched._rank_batch(column)
        assert ranks.tolist() == [batched._rank(int(e)) for e in column]
        self._drain(scalar, planted_kcover)
        self._drain(batched, planted_kcover, batch_size=batch_size)
        assert batched.describe() == scalar.describe()
        assert batched.sketch().element_hashes == scalar.sketch().element_hashes
        assert sorted(batched.sketch().graph.edges()) == sorted(
            scalar.sketch().graph.edges()
        )

    def test_rejects_set_batches(self, figure1_graph):
        from repro.streaming.batches import EventBatch

        params = SketchParams.explicit(4, 8, 2, 0.5, edge_budget=100, degree_cap=10)
        builder = StreamingSketchBuilder(params, seed=1)
        with pytest.raises(TypeError, match="edge batches"):
            builder.process_batch(EventBatch.from_sets([(0, (1, 2))]))

    def test_empty_batch_is_a_noop(self, figure1_graph):
        from repro.streaming.batches import EventBatch

        params = SketchParams.explicit(4, 8, 2, 0.5, edge_budget=100, degree_cap=10)
        builder = StreamingSketchBuilder(params, seed=1)
        assert builder.process_batch(EventBatch.from_edges([])) == 0
        assert builder.edges_seen == 0
