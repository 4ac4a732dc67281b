"""Unit tests for repro.coverage.io."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro.coverage.io import (
    columnar_from_edge_list,
    graph_to_edge_lines,
    load_system,
    open_columnar,
    open_columnar_sets,
    read_edge_list,
    save_system,
    system_from_json,
    system_to_json,
    write_columnar,
    write_columnar_columns,
    write_columnar_sets,
    write_edge_list,
)
from repro.coverage.setsystem import SetSystem
from repro.utils.rng import spawn_rng


@pytest.fixture
def system() -> SetSystem:
    return SetSystem.from_dict({"s1": ["a", "b"], "s2": ["b", "c"]})


class TestEdgeList:
    def test_roundtrip(self, tmp_path, system):
        path = tmp_path / "edges.tsv"
        labelled = [(s, e) for s in system.set_labels() for e in sorted(system.members(s))]
        count = write_edge_list(labelled, path)
        assert count == 4
        assert read_edge_list(path) == labelled

    def test_read_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("# comment\n\ns1\te1\n", encoding="utf-8")
        assert read_edge_list(path) == [("s1", "e1")]

    def test_read_malformed_raises(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("only_one_field\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected 2 fields"):
            read_edge_list(path)

    def test_custom_separator(self, tmp_path):
        path = tmp_path / "edges.csv"
        write_edge_list([("s", "e")], path, sep=",")
        assert read_edge_list(path, sep=",") == [("s", "e")]


class TestJson:
    def test_json_roundtrip(self, system):
        document = system_to_json(system)
        rebuilt = system_from_json(document)
        assert rebuilt.n == system.n
        assert rebuilt.m == system.m
        assert {str(k): set(map(str, v)) for k, v in system.to_dict().items()} == {
            str(k): set(map(str, v)) for k, v in rebuilt.to_dict().items()
        }

    def test_json_rejects_wrong_format(self):
        with pytest.raises(ValueError):
            system_from_json('{"format": "other", "sets": {}}')

    def test_file_roundtrip(self, tmp_path, system):
        path = tmp_path / "system.json"
        save_system(system, path)
        rebuilt = load_system(path)
        assert rebuilt.num_edges == system.num_edges


class TestGraphLines:
    def test_graph_to_edge_lines_sorted(self, tiny_graph):
        lines = graph_to_edge_lines(tiny_graph)
        assert len(lines) == tiny_graph.num_edges
        assert lines == sorted(lines)
        assert lines[0].count("\t") == 1


class TestColumnar:
    def test_integer_round_trip_preserves_order(self, tmp_path, tiny_graph):
        edges = list(tiny_graph.edges())
        count = write_columnar(edges, tmp_path / "cols")
        assert count == len(edges)
        columns = open_columnar(tmp_path / "cols")
        assert list(columns.pairs()) == edges
        assert columns.num_sets == tiny_graph.num_sets
        assert columns.num_elements == tiny_graph.num_elements
        assert columns.set_labels is None and columns.element_labels is None

    def test_columns_are_memory_mapped_uint64(self, tmp_path, tiny_graph):
        write_columnar(tiny_graph.edges(), tmp_path / "cols")
        columns = open_columnar(tmp_path / "cols")
        assert columns.set_ids.dtype == np.uint64
        assert columns.elements.dtype == np.uint64
        assert isinstance(columns.set_ids, np.memmap)
        assert isinstance(columns.elements, np.memmap)

    def test_string_labels_get_vocab_sidecar(self, tmp_path):
        edges = [("alpha", "x"), ("beta", "x"), ("alpha", "y")]
        write_columnar(edges, tmp_path / "cols")
        columns = open_columnar(tmp_path / "cols")
        sets, elements = columns.set_labels, columns.element_labels
        assert [(sets[s], elements[e]) for s, e in columns.pairs()] == edges
        assert columns.set_labels == ("alpha", "beta")
        assert columns.element_labels == ("x", "y")
        assert columns.num_sets == 2 and columns.num_elements == 2

    def test_numeric_strings_keep_their_ids(self, tmp_path):
        write_columnar([("3", "10"), ("0", "7")], tmp_path / "cols")
        columns = open_columnar(tmp_path / "cols")
        assert list(columns.pairs()) == [(3, 10), (0, 7)]
        assert columns.set_labels is None
        assert columns.num_sets == 4  # max id + 1

    def test_non_canonical_numeric_strings_stay_distinct(self, tmp_path):
        # "01" and "1" are different labels; only canonical decimal strings
        # may take the verbatim-integer path.
        edges = [("01", "a"), ("1", "b"), ("+2", "a")]
        write_columnar(edges, tmp_path / "cols")
        columns = open_columnar(tmp_path / "cols")
        assert columns.set_labels == ("01", "1", "+2")
        sets, elements = columns.set_labels, columns.element_labels
        assert [(sets[s], elements[e]) for s, e in columns.pairs()] == edges

    def test_explicit_size_overrides(self, tmp_path):
        write_columnar([(0, 1)], tmp_path / "cols", num_sets=10, num_elements=50)
        columns = open_columnar(tmp_path / "cols")
        assert columns.num_sets == 10
        assert columns.num_elements == 50

    def test_empty_edge_list(self, tmp_path):
        assert write_columnar([], tmp_path / "cols") == 0
        columns = open_columnar(tmp_path / "cols")
        assert columns.num_edges == 0
        assert list(columns.pairs()) == []

    def test_conversion_from_edge_list(self, tmp_path, tiny_graph):
        text = tmp_path / "edges.tsv"
        write_edge_list(tiny_graph.edges(), text)
        count = columnar_from_edge_list(text, tmp_path / "cols")
        assert count == tiny_graph.num_edges
        columns = open_columnar(tmp_path / "cols")
        assert [(str(s), str(e)) for s, e in columns.pairs()] == read_edge_list(text)

    def test_open_rejects_non_columnar_directories(self, tmp_path):
        with pytest.raises(ValueError, match="no meta.json"):
            open_columnar(tmp_path)
        (tmp_path / "meta.json").write_text(json.dumps({"format": "other"}))
        with pytest.raises(ValueError, match="repro.columnar.v1"):
            open_columnar(tmp_path)

    def test_open_rejects_length_mismatch(self, tmp_path, tiny_graph):
        write_columnar(tiny_graph.edges(), tmp_path / "cols")
        meta_path = tmp_path / "cols" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["num_edges"] += 1
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="num_edges"):
            open_columnar(tmp_path / "cols")


class TestColumnarColumns:
    def test_array_writer_matches_pair_writer(self, tmp_path, tiny_graph):
        edges = sorted(tiny_graph.edges())
        write_columnar(edges, tmp_path / "pairs")
        write_columnar_columns(
            np.array([s for s, _ in edges], dtype=np.uint64),
            np.array([e for _, e in edges], dtype=np.uint64),
            tmp_path / "arrays",
        )
        from_pairs = open_columnar(tmp_path / "pairs")
        from_arrays = open_columnar(tmp_path / "arrays")
        assert list(from_arrays.pairs()) == list(from_pairs.pairs())
        assert from_arrays.num_sets == from_pairs.num_sets
        assert from_arrays.num_elements == from_pairs.num_elements

    def test_rejects_mismatched_columns(self, tmp_path):
        with pytest.raises(ValueError, match="equal-length"):
            write_columnar_columns(
                np.zeros(3, dtype=np.uint64), np.zeros(2, dtype=np.uint64), tmp_path / "c"
            )

    @pytest.mark.parametrize("seed", range(12))
    def test_num_distinct_edges_counts_unique_rows(self, tmp_path, seed):
        # Odd seeds give half the rows set ids past 2**63, too large to pack
        # beside the element ranks, so the count also ranks the set ids.
        rng = spawn_rng(seed, "distinct-edges")
        n = int(rng.integers(0, 400))
        set_ids = rng.integers(0, 20, n, dtype=np.uint64)
        if seed % 2:
            set_ids[::2] += np.uint64(2**63)
        elements = rng.integers(0, 2**40, int(rng.integers(1, 60)), dtype=np.uint64)
        elements = elements[rng.integers(0, len(elements), n)]
        write_columnar_columns(set_ids, elements, tmp_path / "c")
        rows = np.stack([set_ids, elements], axis=1)
        assert open_columnar(tmp_path / "c").num_distinct_edges == len(np.unique(rows, axis=0))


class TestColumnarSets:
    FAMILY = [(0, [1, 2, 3]), (1, [3, 4]), (2, []), (5, [0, 9])]

    def test_round_trip(self, tmp_path):
        count = write_columnar_sets(self.FAMILY, tmp_path / "sets")
        assert count == 7
        columns = open_columnar_sets(tmp_path / "sets")
        assert list(columns.sets()) == [(s, list(m)) for s, m in self.FAMILY]
        assert columns.num_stored_sets == 4
        assert columns.num_memberships == 7
        assert columns.num_sets == 6  # max set id + 1
        assert columns.num_elements == 6  # distinct members

    def test_to_graph_matches_family(self, tmp_path):
        write_columnar_sets(self.FAMILY, tmp_path / "sets")
        graph = open_columnar_sets(tmp_path / "sets").to_graph()
        for set_id, members in self.FAMILY:
            assert graph.elements_of(set_id) == set(members)
        # The bulk build equals an add_edge loop down to iteration order.
        from repro.coverage.bipartite import BipartiteGraph

        expected = BipartiteGraph(graph.num_sets)
        for set_id, members in self.FAMILY:
            for element in members:
                expected.add_edge(set_id, element)
        assert list(graph.elements()) == list(expected.elements())
        assert list(graph.edges()) == list(expected.edges())

    def test_string_labels_get_a_vocab(self, tmp_path):
        write_columnar_sets([("alpha", ["x", "y"]), ("beta", ["y"])], tmp_path / "sets")
        columns = open_columnar_sets(tmp_path / "sets")
        assert columns.set_labels == ("alpha", "beta")
        assert columns.element_labels == ("x", "y")
        assert list(columns.sets()) == [(0, [0, 1]), (1, [1])]

    def test_empty_family(self, tmp_path):
        assert write_columnar_sets([], tmp_path / "sets") == 0
        columns = open_columnar_sets(tmp_path / "sets")
        assert columns.num_stored_sets == 0
        assert list(columns.sets()) == []

    def test_open_rejects_other_formats(self, tmp_path, tiny_graph):
        with pytest.raises(ValueError, match="no meta.json"):
            open_columnar_sets(tmp_path)
        write_columnar(tiny_graph.edges(), tmp_path / "edges")
        with pytest.raises(ValueError, match="columnar-sets"):
            open_columnar_sets(tmp_path / "edges")

    def test_open_rejects_inconsistent_offsets(self, tmp_path):
        write_columnar_sets(self.FAMILY, tmp_path / "sets")
        np.save(tmp_path / "sets" / "offsets.npy", np.array([0, 1], dtype=np.int64))
        with pytest.raises(ValueError, match="offsets"):
            open_columnar_sets(tmp_path / "sets")


class TestColumnarColumnsValidation:
    def test_rejects_negative_ids(self, tmp_path):
        with pytest.raises(ValueError, match="negative"):
            write_columnar_columns(
                np.array([-1, 2], dtype=np.int64),
                np.array([0, 1], dtype=np.int64),
                tmp_path / "c",
            )

    def test_rejects_non_integer_columns(self, tmp_path):
        with pytest.raises(ValueError, match="integer column"):
            write_columnar_columns(
                np.array([0.5, 1.5]), np.array([0, 1], dtype=np.int64), tmp_path / "c"
            )

    def test_accepts_signed_non_negative(self, tmp_path):
        write_columnar_columns(
            np.array([0, 2], dtype=np.int64),
            np.array([3, 1], dtype=np.int64),
            tmp_path / "c",
        )
        assert list(open_columnar(tmp_path / "c").pairs()) == [(0, 3), (2, 1)]


class TestColumnarSetsOffsetsValidation:
    def test_open_rejects_nonzero_first_offset(self, tmp_path):
        write_columnar_sets([(0, [1, 2]), (1, [3, 4])], tmp_path / "sets")
        np.save(tmp_path / "sets" / "offsets.npy", np.array([2, 4, 4], dtype=np.int64))
        with pytest.raises(ValueError, match="start at 0"):
            open_columnar_sets(tmp_path / "sets")

    def test_open_rejects_decreasing_offsets(self, tmp_path):
        # Passes the length and terminal-bound checks but has a decreasing
        # step, which would silently yield an empty slice for row 1.
        write_columnar_sets([(0, [1]), (1, [2, 3]), (2, [4])], tmp_path / "sets")
        np.save(
            tmp_path / "sets" / "offsets.npy", np.array([0, 3, 1, 4], dtype=np.int64)
        )
        with pytest.raises(ValueError, match="non-decreasing"):
            open_columnar_sets(tmp_path / "sets")


def _corrupt_bad_json(path):
    (path / "meta.json").write_text("{not json")


def _corrupt_missing_key(key):
    def corrupt(path):
        meta = json.loads((path / "meta.json").read_text())
        del meta[key]
        (path / "meta.json").write_text(json.dumps(meta))

    return corrupt


def _corrupt_missing_column(name):
    def corrupt(path):
        (path / f"{name}.npy").unlink()

    return corrupt


def _corrupt_truncated_column(name):
    def corrupt(path):
        column = path / f"{name}.npy"
        column.write_bytes(column.read_bytes()[:-8])

    return corrupt


#: The four ways a columnar edge directory breaks, each once.
EDGE_CORRUPTIONS = {
    "bad-json": _corrupt_bad_json,
    "missing-num-edges": _corrupt_missing_key("num_edges"),
    "missing-elements": _corrupt_missing_column("elements"),
    "truncated-elements": _corrupt_truncated_column("elements"),
}

SET_CORRUPTIONS = {
    "bad-json": _corrupt_bad_json,
    "missing-num-memberships": _corrupt_missing_key("num_memberships"),
    "missing-members": _corrupt_missing_column("members"),
    "truncated-members": _corrupt_truncated_column("members"),
}


class TestCorruptColumnar:
    """A broken directory raises a CorruptInputError naming its path."""

    @pytest.fixture
    def edge_dir(self, tmp_path, tiny_graph):
        write_columnar(tiny_graph.edges(), tmp_path / "cols")
        return tmp_path / "cols"

    @pytest.mark.parametrize("corrupt", EDGE_CORRUPTIONS.values(), ids=EDGE_CORRUPTIONS)
    def test_open_columnar(self, edge_dir, corrupt):
        from repro.errors import CorruptInputError, ReproError

        corrupt(edge_dir)
        with pytest.raises(CorruptInputError, match=re.escape(str(edge_dir))) as caught:
            open_columnar(edge_dir)
        assert isinstance(caught.value, ReproError)
        assert isinstance(caught.value, ValueError)

    @pytest.mark.parametrize("corrupt", EDGE_CORRUPTIONS.values(), ids=EDGE_CORRUPTIONS)
    def test_distributed_solve(self, edge_dir, corrupt):
        from repro.api import solve
        from repro.errors import CorruptInputError

        corrupt(edge_dir)
        with pytest.raises(CorruptInputError, match=re.escape(str(edge_dir))):
            solve(edge_dir, "kcover/distributed", k=2)

    @pytest.mark.parametrize("corrupt", SET_CORRUPTIONS.values(), ids=SET_CORRUPTIONS)
    def test_open_columnar_sets(self, tmp_path, corrupt):
        from repro.errors import CorruptInputError

        path = tmp_path / "sets"
        write_columnar_sets(TestColumnarSets.FAMILY, path)
        corrupt(path)
        with pytest.raises(CorruptInputError, match=re.escape(str(path))):
            open_columnar_sets(path)

    def test_non_integer_metadata_is_rejected(self, edge_dir):
        from repro.errors import CorruptInputError

        meta = json.loads((edge_dir / "meta.json").read_text())
        meta["num_sets"] = "many"
        (edge_dir / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(CorruptInputError, match="num_sets"):
            open_columnar(edge_dir)


class TestColumnarEvaluation:
    """What a column-backed solve reads instead of the graph."""

    def test_to_graph_equals_the_add_edge_loop(self, tmp_path):
        from repro.coverage.bipartite import BipartiteGraph

        edges = [(2, 9), (0, 4), (2, 4), (1, 7), (0, 4), (2, 1)]
        write_columnar(edges, tmp_path / "cols", num_sets=4)
        graph = open_columnar(tmp_path / "cols").to_graph()
        expected = BipartiteGraph(4)
        for set_id, element in edges:
            expected.add_edge(set_id, element)
        assert list(graph.elements()) == list(expected.elements())
        assert list(graph.edges()) == list(expected.edges())

    def test_coverage_and_distinct_count_match_the_graph(self, tmp_path, tiny_graph):
        write_columnar(tiny_graph.edges(), tmp_path / "cols", num_elements=999)
        columns = open_columnar(tmp_path / "cols")
        graph = columns.to_graph()
        assert columns.num_elements == 999
        assert columns.num_distinct_elements == graph.num_elements
        for family in ([], [0], [1, 2], list(graph.set_ids())):
            assert columns.coverage(family) == graph.coverage(family)

    def test_check_set_ids_raises_what_to_graph_raises(self, tmp_path):
        from repro.errors import InvalidInstanceError

        write_columnar([(0, 1), (3, 2), (4, 2)], tmp_path / "cols")
        meta_path = tmp_path / "cols" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["num_sets"] = 3
        meta_path.write_text(json.dumps(meta))
        columns = open_columnar(tmp_path / "cols")
        with pytest.raises(InvalidInstanceError, match=re.escape("set id 3 out of range [0, 3)")):
            columns.check_set_ids()
        with pytest.raises(InvalidInstanceError, match=re.escape("set id 3 out of range [0, 3)")):
            columns.to_graph()
