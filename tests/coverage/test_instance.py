"""Unit tests for repro.coverage.instance."""

from __future__ import annotations

import pytest

from repro.coverage.bipartite import BipartiteGraph
from repro.coverage.instance import CoverageInstance, ProblemKind
from repro.errors import InvalidInstanceError


class TestValidation:
    def test_basic_construction(self, tiny_graph):
        instance = CoverageInstance(graph=tiny_graph, k=2)
        assert instance.n == 4
        assert instance.m == 6
        assert instance.num_edges == 9
        assert instance.kind is ProblemKind.K_COVER

    def test_kind_coercion_from_string(self, tiny_graph):
        instance = CoverageInstance(graph=tiny_graph, kind="set_cover", k=1)
        assert instance.kind is ProblemKind.SET_COVER

    def test_rejects_non_graph(self):
        with pytest.raises(InvalidInstanceError):
            CoverageInstance(graph="nope", k=1)

    def test_rejects_empty_ground_set(self):
        with pytest.raises(InvalidInstanceError):
            CoverageInstance(graph=BipartiteGraph(2), k=1)

    def test_rejects_k_above_n(self, tiny_graph):
        with pytest.raises(InvalidInstanceError):
            CoverageInstance(graph=tiny_graph, k=10)

    def test_rejects_bad_planted_solution(self, tiny_graph):
        with pytest.raises(InvalidInstanceError):
            CoverageInstance(graph=tiny_graph, k=1, planted_solution=(9,))

    def test_planted_value_auto_computed(self, tiny_graph):
        instance = CoverageInstance(graph=tiny_graph, k=2, planted_solution=(0, 2))
        assert instance.planted_value == 6
        assert instance.reference_value() == 6


class TestEvaluation:
    def test_coverage_helpers(self, tiny_graph):
        instance = CoverageInstance(graph=tiny_graph, k=2)
        assert instance.coverage([0]) == 3
        assert instance.coverage_fraction([0]) == pytest.approx(0.5)

    def test_describe_contains_sizes(self, tiny_graph):
        instance = CoverageInstance(graph=tiny_graph, k=2, metadata={"seed": 3})
        info = instance.describe()
        assert info["n"] == 4 and info["m"] == 6
        assert info["meta.seed"] == 3
