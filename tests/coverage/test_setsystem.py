"""Unit tests for repro.coverage.setsystem."""

from __future__ import annotations

import pytest

from repro.coverage.setsystem import SetSystem
from repro.errors import InvalidInstanceError


@pytest.fixture
def system() -> SetSystem:
    return SetSystem.from_dict(
        {"a": ["x", "y", "z"], "b": ["z", "w"], "c": []}
    )


class TestConstruction:
    def test_from_dict_sizes(self, system):
        assert system.n == 3
        assert system.m == 4
        assert system.num_edges == 5

    def test_from_edges(self):
        system = SetSystem.from_edges([("s1", "e1"), ("s1", "e2"), ("s2", "e2")])
        assert system.n == 2
        assert system.members("s1") == {"e1", "e2"}

    def test_add_set_extends_existing(self, system):
        system.add_set("a", ["w"])
        assert system.members("a") == {"x", "y", "z", "w"}
        assert system.n == 3

    def test_add_membership(self, system):
        set_id, element_id = system.add_membership("d", "x")
        assert system.set_label(set_id) == "d"
        assert system.element_label(element_id) == "x"

    def test_empty_set_allowed(self, system):
        assert system.members("c") == set()


class TestLookups:
    def test_roundtrip_labels(self, system):
        assert system.set_label(system.set_id("b")) == "b"
        assert system.element_label(system.element_id("w")) == "w"

    def test_unknown_labels_raise(self, system):
        with pytest.raises(KeyError):
            system.set_id("nope")
        with pytest.raises(KeyError):
            system.element_id("nope")

    def test_labels_for(self, system):
        assert system.labels_for([0, 1]) == ["a", "b"]

    def test_edge_iterators_consistent(self, system):
        assert len(list(system.edges())) == system.num_edges
        labeled = {(system.set_label(s), system.element_label(e)) for s, e in system.edges()}
        assert ("a", "x") in labeled and ("b", "w") in labeled


class TestConversion:
    def test_to_graph_matches_sizes(self, system):
        graph = system.to_graph()
        assert graph.num_sets == system.n
        assert graph.num_elements == system.m
        assert graph.num_edges == system.num_edges

    def test_to_graph_empty_system_raises(self):
        with pytest.raises(InvalidInstanceError):
            SetSystem().to_graph()

    def test_to_dict_roundtrip(self, system):
        rebuilt = SetSystem.from_dict(system.to_dict())
        assert rebuilt.n == system.n
        assert rebuilt.to_dict() == system.to_dict()

    def test_len(self, system):
        assert len(system) == 3
