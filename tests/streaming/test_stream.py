"""Unit tests for repro.streaming.stream."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coverage.bipartite import BipartiteGraph
from repro.errors import InvalidInstanceError, SpecError
from repro.streaming.batches import EventBatch
from repro.streaming.events import EdgeArrival, SetArrival
from repro.streaming.stream import STREAM_ORDERS, EdgeStream, SetStream


def _scrambled_graph() -> BipartiteGraph:
    """A graph filled out of set order, with tied largest sets (0, 1, 3) and
    a set ({2, 40}) that Python iterates out of ascending order."""
    graph = BipartiteGraph(5)
    for set_id, element in [
        (3, 7), (0, 2), (1, 7), (4, 9), (0, 5), (2, 2),
        (1, 11), (3, 5), (0, 9), (2, 40), (1, 2), (3, 1),
    ]:  # fmt: skip
        graph.add_edge(set_id, element)
    return graph


def _batch_rows(stream, batch_size):
    """One pass of ``iter_batches`` as plain lists, batch boundaries kept."""
    return [
        (
            batch.set_ids.tolist(),
            batch.elements.tolist(),
            None if batch.offsets is None else batch.offsets.tolist(),
        )
        for batch in stream.iter_batches(batch_size)
    ]


def _add_edge_loop(num_sets: int, edges) -> BipartiteGraph:
    reference = BipartiteGraph(num_sets)
    for set_id, element in edges:
        reference.add_edge(set_id, element)
    return reference


class TestEdgeStream:
    def test_given_order_preserved(self):
        edges = [(0, 5), (1, 3), (0, 2)]
        stream = EdgeStream(edges, num_sets=2, order="given")
        assert [e.as_tuple() for e in stream] == edges

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            EdgeStream([(0, 1)], num_sets=1, order="bogus")

    def test_random_order_is_permutation_and_reproducible(self, tiny_graph):
        s1 = EdgeStream.from_graph(tiny_graph, order="random", seed=3)
        s2 = EdgeStream.from_graph(tiny_graph, order="random", seed=3)
        p1 = [e.as_tuple() for e in s1]
        p2 = [e.as_tuple() for e in s2]
        assert p1 == p2
        assert sorted(p1) == sorted(tiny_graph.edges())

    def test_random_order_differs_across_passes(self, tiny_graph):
        stream = EdgeStream.from_graph(tiny_graph, order="random", seed=3)
        first = [e.as_tuple() for e in stream]
        second = [e.as_tuple() for e in stream]
        assert sorted(first) == sorted(second)
        assert first != second  # overwhelmingly likely for 9 edges

    def test_set_grouped_order(self, tiny_graph):
        stream = EdgeStream.from_graph(tiny_graph, order="set_grouped")
        set_sequence = [e.set_id for e in stream]
        assert set_sequence == sorted(set_sequence)

    def test_element_grouped_order(self, tiny_graph):
        stream = EdgeStream.from_graph(tiny_graph, order="element_grouped")
        element_sequence = [e.element for e in stream]
        assert element_sequence == sorted(element_sequence)

    def test_adversarial_tail_holds_back_largest_set(self, tiny_graph):
        stream = EdgeStream.from_graph(tiny_graph, order="adversarial_tail", seed=1)
        events = [e.as_tuple() for e in stream]
        largest = max(tiny_graph.set_ids(), key=lambda s: (tiny_graph.set_degree(s), -s))
        tail = events[-tiny_graph.set_degree(largest):]
        assert all(set_id == largest for set_id, _ in tail)

    def test_adversarial_tail_with_explicit_sets(self, tiny_graph):
        stream = EdgeStream.from_graph(
            tiny_graph, order="adversarial_tail", seed=1, favored_sets=[3]
        )
        events = [e.as_tuple() for e in stream]
        assert events[-1][0] == 3

    def test_pass_counting(self, tiny_graph):
        stream = EdgeStream.from_graph(tiny_graph, order="given")
        assert stream.passes_taken == 0
        list(stream)
        list(stream)
        assert stream.passes_taken == 2
        stream.reset_pass_count()
        assert stream.passes_taken == 0

    def test_metadata(self, tiny_graph):
        stream = EdgeStream.from_graph(tiny_graph)
        assert stream.num_sets == 4
        assert stream.num_elements_hint == 6
        assert stream.num_events == 9
        assert stream.order == "random"

    def test_num_elements_hint_inferred(self):
        stream = EdgeStream([(0, 10), (0, 20), (1, 10)], num_sets=2)
        assert stream.num_elements_hint == 2

    def test_to_graph_roundtrip(self, tiny_graph):
        stream = EdgeStream.from_graph(tiny_graph, order="random", seed=0)
        assert stream.to_graph() == tiny_graph

    def test_yields_edge_arrivals(self, tiny_graph):
        stream = EdgeStream.from_graph(tiny_graph)
        assert all(isinstance(e, EdgeArrival) for e in stream)

    def test_all_orders_cover_all_edges(self, tiny_graph):
        for order in STREAM_ORDERS:
            stream = EdgeStream.from_graph(tiny_graph, order=order, seed=2)
            assert sorted(e.as_tuple() for e in stream) == sorted(tiny_graph.edges())


class TestSetStream:
    def test_from_graph_and_sizes(self, tiny_graph):
        stream = SetStream.from_graph(tiny_graph, order="given")
        assert stream.num_sets == 4
        assert stream.num_events == 4
        events = list(stream)
        assert all(isinstance(e, SetArrival) for e in events)
        assert {e.set_id for e in events} == {0, 1, 2, 3}

    def test_members_match_graph(self, tiny_graph):
        stream = SetStream.from_graph(tiny_graph, order="given")
        for event in stream:
            assert set(event.elements) == set(tiny_graph.elements_of(event.set_id))

    def test_random_order_reproducible(self, tiny_graph):
        s1 = SetStream.from_graph(tiny_graph, order="random", seed=5)
        s2 = SetStream.from_graph(tiny_graph, order="random", seed=5)
        assert [e.set_id for e in s1] == [e.set_id for e in s2]

    def test_rejects_unknown_order(self):
        with pytest.raises(ValueError):
            SetStream([[0]], order="set_grouped")

    def test_dict_construction(self):
        stream = SetStream({0: [1, 2], 3: [4]})
        assert stream.num_sets == 4
        assert stream.num_events == 2

    def test_pass_counting(self, tiny_graph):
        stream = SetStream.from_graph(tiny_graph)
        list(stream)
        assert stream.passes_taken == 1
        stream.reset_pass_count()
        assert stream.passes_taken == 0

    def test_to_graph(self, tiny_graph):
        stream = SetStream.from_graph(tiny_graph)
        assert stream.to_graph() == tiny_graph

    def test_to_edge_stream(self, tiny_graph):
        edge_stream = SetStream.from_graph(tiny_graph).to_edge_stream(order="given")
        assert edge_stream.num_events == tiny_graph.num_edges
        assert sorted(e.as_tuple() for e in edge_stream) == sorted(tiny_graph.edges())


class TestColumnBackedEdgeStream:
    """EdgeStream.from_columnar: streams built over memory-mapped columns."""

    @pytest.fixture
    def columnar_path(self, tmp_path, tiny_graph):
        from repro.coverage.io import write_columnar

        write_columnar(
            tiny_graph.edges(), tmp_path / "cols", num_sets=tiny_graph.num_sets
        )
        return tmp_path / "cols"

    def test_metadata(self, columnar_path, tiny_graph):
        stream = EdgeStream.from_columnar(columnar_path)
        assert stream.num_sets == tiny_graph.num_sets
        assert stream.num_events == tiny_graph.num_edges
        assert stream.num_elements_hint == tiny_graph.num_elements
        assert stream.order == "given"

    @pytest.mark.parametrize("order", STREAM_ORDERS)
    @pytest.mark.parametrize("seed", [7, 8])
    @pytest.mark.parametrize("batch_size", [1, 3, 4096])
    def test_scalar_iteration_matches_tuple_stream(self, tmp_path, order, seed, batch_size):
        """edges=, from_graph and from_columnar streams over one graph are
        the same stream: same events, same batches, same graph back."""
        from repro.coverage.io import write_columnar

        graph = _scrambled_graph()
        write_columnar(graph.edges(), tmp_path / "cols", num_sets=graph.num_sets)
        sources = [
            lambda: EdgeStream(
                list(graph.edges()), num_sets=graph.num_sets, order=order, seed=seed
            ),
            lambda: EdgeStream.from_graph(graph, order=order, seed=seed),
            lambda: EdgeStream.from_columnar(tmp_path / "cols", order=order, seed=seed),
        ]
        reference = _add_edge_loop(graph.num_sets, graph.edges())
        passes = []
        for make in sources:
            # Two passes each way: per-pass shuffles must line up pass by pass.
            stream, batched = make(), make()
            events = [[e.as_tuple() for e in stream] for _ in range(2)]
            batches = [_batch_rows(batched, batch_size) for _ in range(2)]
            for pass_events, pass_batches in zip(events, batches):
                unrolled = [
                    pair for sets, elements, _ in pass_batches for pair in zip(sets, elements)
                ]
                assert unrolled == pass_events
            passes.append((events, batches))
            assert stream.passes_taken == batched.passes_taken == 2
            rebuilt = stream.to_graph()
            assert rebuilt == graph
            for column, expected in zip(rebuilt.to_columns(), reference.to_columns()):
                assert column.tolist() == expected.tolist()
            assert stream.num_elements_hint == graph.num_elements
        assert passes[0] == passes[1] == passes[2]
        if order == "given":
            assert passes[0][0][0] == list(graph.edges())

    def test_accepts_open_columnar_object(self, columnar_path, tiny_graph):
        from repro.coverage.io import open_columnar

        stream = EdgeStream.from_columnar(open_columnar(columnar_path))
        assert stream.to_graph() == tiny_graph

    def test_pass_counting_and_replay(self, columnar_path):
        stream = EdgeStream.from_columnar(columnar_path, order="random", seed=2)
        first = [e.as_tuple() for e in stream]
        second = [e.as_tuple() for e in stream]
        assert stream.passes_taken == 2
        assert sorted(first) == sorted(second)

    def test_rejects_both_edges_and_columns(self):
        import numpy as np

        with pytest.raises(ValueError, match="exactly one"):
            EdgeStream(
                [(0, 1)],
                columns=(np.zeros(1, dtype=np.uint64), np.zeros(1, dtype=np.uint64)),
                num_sets=1,
            )
        with pytest.raises(ValueError, match="exactly one"):
            EdgeStream(num_sets=1)

    def test_rejects_ragged_columns(self):
        import numpy as np

        with pytest.raises(ValueError, match="equal length"):
            EdgeStream(
                columns=(np.zeros(2, dtype=np.uint64), np.zeros(3, dtype=np.uint64)),
                num_sets=1,
            )

    def test_sketch_built_from_columnar_matches_tuple_stream(self, columnar_path, tiny_graph):
        from repro.core.params import SketchParams
        from repro.core.streaming_sketch import StreamingSketchBuilder

        params = SketchParams.explicit(4, 6, 2, 0.5, edge_budget=100, degree_cap=10)
        via_tuples = StreamingSketchBuilder(params, seed=9)
        via_columns = StreamingSketchBuilder(params, seed=9)
        for event in EdgeStream.from_graph(tiny_graph, order="given"):
            via_tuples.process(event)
        for batch in EdgeStream.from_columnar(columnar_path).iter_batches(3):
            via_columns.process_batch(batch)
        assert via_columns.describe() == via_tuples.describe()


class TestColumnBackedSetStream:
    FAMILY = {0: [1, 2, 3], 1: [3, 4], 2: [], 5: [0, 9]}

    @pytest.fixture
    def columnar_sets_path(self, tmp_path):
        from repro.coverage.io import write_columnar_sets

        path = tmp_path / "sets.cols"
        write_columnar_sets(sorted(self.FAMILY.items()), path)
        return path

    @pytest.mark.parametrize("order", ["given", "random"])
    @pytest.mark.parametrize("seed", [4, 5])
    @pytest.mark.parametrize("batch_size", [1, 3, 4096])
    def test_scalar_events_match_in_memory_stream(self, tmp_path, order, seed, batch_size):
        """In-memory, from_graph and from_columnar set streams over one
        family are the same stream, and to_edge_stream unrolls it."""
        from repro.coverage.io import write_columnar_sets

        graph = _scrambled_graph()
        family = {s: sorted(graph.elements_of(s)) for s in graph.set_ids()}
        write_columnar_sets(sorted(family.items()), tmp_path / "sets")
        sources = [
            lambda: SetStream(family, order=order, seed=seed),
            lambda: SetStream([family[s] for s in graph.set_ids()], order=order, seed=seed),
            lambda: SetStream.from_graph(graph, order=order, seed=seed),
            lambda: SetStream.from_columnar(tmp_path / "sets", order=order, seed=seed),
        ]
        reference = _add_edge_loop(
            graph.num_sets, [(s, e) for s, members in family.items() for e in members]
        )
        passes = []
        for make in sources:
            stream, batched = make(), make()
            assert stream.num_sets == graph.num_sets
            events = [list(stream) for _ in range(2)]
            batches = [_batch_rows(batched, batch_size) for _ in range(2)]
            for pass_events, pass_batches in zip(events, batches):
                unrolled = [
                    (set_id, tuple(elements[offsets[row] : offsets[row + 1]]))
                    for set_ids, elements, offsets in pass_batches
                    for row, set_id in enumerate(set_ids)
                ]
                assert unrolled == [(e.set_id, e.elements) for e in pass_events]
            passes.append((events, batches))
            rebuilt = stream.to_graph()
            assert rebuilt == graph
            for column, expected in zip(rebuilt.to_columns(), reference.to_columns()):
                assert column.tolist() == expected.tolist()
            given = SetStream(family, order="given")
            edges = stream.to_edge_stream(order="given", seed=seed)
            assert [e.as_tuple() for e in edges] == [
                edge.as_tuple() for event in given for edge in event.edges()
            ]
            assert edges.num_sets == graph.num_sets
        assert passes[0] == passes[1] == passes[2] == passes[3]

    def test_metadata_and_graph(self, columnar_sets_path):
        stream = SetStream.from_columnar(columnar_sets_path)
        assert stream.num_sets == 6
        assert stream.num_events == 4
        graph = stream.to_graph()
        for set_id, members in self.FAMILY.items():
            assert graph.elements_of(set_id) == set(members)

    def test_accepts_open_columns_and_rejects_bad_order(self, columnar_sets_path):
        from repro.coverage.io import open_columnar_sets

        columns = open_columnar_sets(columnar_sets_path)
        stream = SetStream.from_columnar(columns, order="given")
        assert stream.num_events == 4
        with pytest.raises(ValueError, match="given.*random|orders"):
            SetStream.from_columnar(columns, order="element_grouped")


_U64 = np.uint64


@pytest.mark.parametrize(
    "build, error",
    [
        (
            lambda: EdgeStream(columns=(np.array([0, 1]), np.array([0.2, 0.9])), num_sets=2),
            InvalidInstanceError,
        ),
        (lambda: EventBatch(np.array([-1]), np.array([2])), InvalidInstanceError),
        (lambda: EdgeStream([(0, -1)], num_sets=1), InvalidInstanceError),
        (lambda: EdgeStream([(0, 0.5)], num_sets=1), InvalidInstanceError),
        (
            lambda: list(
                EdgeStream([(0, 1)], num_sets=1, order="adversarial_tail", favored_sets=[-1])
            ),
            InvalidInstanceError,
        ),
        (lambda: list(SetStream([[-1]]).iter_batches(2)), InvalidInstanceError),
        (lambda: list(SetStream([[-1]])), InvalidInstanceError),
        (lambda: SetStream({-2: [1]}), InvalidInstanceError),
        (lambda: EdgeStream([], num_sets=-3), InvalidInstanceError),
        (lambda: EdgeStream([(0, 1)], num_sets=1, order="bogus"), SpecError),
        (lambda: SetStream([[0]], order="set_grouped"), SpecError),
        (
            lambda: EdgeStream(
                [(0, 1)], columns=(np.zeros(1, dtype=_U64), np.zeros(1, dtype=_U64)), num_sets=1
            ),
            SpecError,
        ),
        (lambda: EdgeStream(num_sets=1), SpecError),
        (
            lambda: EdgeStream(
                columns=(np.zeros(2, dtype=_U64), np.zeros(3, dtype=_U64)), num_sets=1
            ),
            SpecError,
        ),
        (lambda: list(EdgeStream([(0, 1)], num_sets=1).iter_batches(0)), SpecError),
        (lambda: list(SetStream([[0]]).iter_batches(0)), SpecError),
        (lambda: SetStream(EventBatch.from_edges([(0, 1)])), SpecError),
    ],
    ids=[
        "float-element-column",
        "negative-batch-id",
        "negative-element",
        "float-element",
        "negative-favored-set",
        "negative-member-batched",
        "negative-member-scalar",
        "negative-set-key",
        "negative-num-sets",
        "unknown-edge-order",
        "unknown-set-order",
        "edges-and-columns",
        "neither-edges-nor-columns",
        "ragged-columns",
        "zero-edge-batch-size",
        "zero-set-batch-size",
        "edge-batch-as-sets",
    ],
)
def test_bad_stream_input_raises_typed_error(build, error):
    """Bad ids and counts are instance errors, bad arguments spec errors —
    never a silent cast or a bare OverflowError."""
    with pytest.raises(error):
        build()
