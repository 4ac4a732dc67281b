"""Unit tests for the solver registry (repro.api.registry)."""

from __future__ import annotations

import pytest

from repro.api import (
    ProblemContext,
    get_solver,
    iter_solvers,
    list_solvers,
    register_solver,
    unregister_solver,
)
from repro.datasets import list_datasets
from repro.errors import SpecError, UnknownSolverError

#: Every solver family the tentpole requires to be registered out of the box.
EXPECTED_SOLVERS = {
    "kcover/sketch",
    "kcover/ensemble",
    "kcover/distributed",
    "kcover/saha-getoor",
    "kcover/sieve",
    "kcover/mcgregor-vu",
    "setcover/sketch",
    "setcover/demaine",
    "setcover/harpeled",
    "outliers/sketch",
    "outliers/emek-rosen",
    "offline/greedy",
    "offline/local-search",
}


class TestBuiltinRegistry:
    def test_all_families_registered(self):
        assert EXPECTED_SOLVERS <= set(list_solvers())

    def test_filter_by_problem(self):
        kcover = list_solvers(problem="k_cover")
        assert "kcover/sketch" in kcover
        assert "setcover/sketch" not in kcover
        assert "offline/greedy" in kcover  # solves all three problems

    def test_filter_by_kind(self):
        offline = list_solvers(kind="offline")
        assert offline == ["offline/greedy", "offline/local-search"]

    def test_iter_solvers_sorted_and_described(self):
        infos = iter_solvers()
        assert [i.name for i in infos] == sorted(i.name for i in infos)
        for info in infos:
            caps = info.capabilities()
            assert caps["name"] == info.name
            assert caps["kind"] in ("streaming", "offline", "distributed")

    def test_solver_info_metadata(self):
        info = get_solver("kcover/sketch")
        assert info.arrival == "edge"
        assert info.passes == "1"
        assert info.solves("k_cover")
        assert not info.solves("set_cover")
        assert info.family == "kcover"

    def test_unknown_solver_suggests_close_match(self):
        with pytest.raises(UnknownSolverError, match="kcover/sketch"):
            get_solver("kcover/sketchy")

    def test_unknown_solver_is_value_error(self):
        with pytest.raises(ValueError):
            get_solver("no/such-solver")


def unclean_names(names) -> list:
    """The registry names that are not a non-empty string without whitespace.

    Registry names feed CLI choices, spec validation and did-you-mean hints,
    so each must be a single clean token.
    """
    return [
        name
        for name in names
        if not isinstance(name, str) or not name or any(ch.isspace() for ch in name)
    ]


@pytest.mark.parametrize("names", [list_solvers, list_datasets], ids=["solver", "dataset"])
def test_every_registered_name_is_clean(names):
    assert names()
    assert unclean_names(names()) == []


def test_an_unclean_name_is_caught():
    seeded = ["kcover/sketch", "", "kcover/ sieve", "tab\tname", "line\n", 7, None]
    assert unclean_names(seeded) == seeded[1:]


class TestRegistration:
    def test_register_and_unregister(self):
        @register_solver(
            "test/dummy",
            kind="streaming",
            problems=("k_cover",),
            arrival="edge",
            summary="test-only",
        )
        def _build(ctx: ProblemContext, **options):  # pragma: no cover - lookup only
            raise NotImplementedError

        try:
            assert "test/dummy" in list_solvers()
            assert get_solver("test/dummy").builder is _build
        finally:
            unregister_solver("test/dummy")
        assert "test/dummy" not in list_solvers()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SpecError):
            register_solver(
                "kcover/sketch", problems=("k_cover",), arrival="edge"
            )(lambda ctx: None)

    def test_streaming_solver_requires_arrival(self):
        with pytest.raises(SpecError):
            register_solver("test/no-arrival", problems=("k_cover",))(lambda ctx: None)

    def test_rejects_unknown_kind(self):
        with pytest.raises(SpecError):
            register_solver(
                "test/bad-kind", kind="quantum", problems=("k_cover",), arrival="edge"
            )(lambda ctx: None)

    def test_rejects_empty_problems(self):
        with pytest.raises(SpecError):
            register_solver("test/no-problems", problems=(), arrival="edge")(
                lambda ctx: None
            )


class TestProblemContext:
    def test_m_floor_matches_historical_call_sites(self, tiny_graph):
        ctx = ProblemContext(graph=tiny_graph)
        assert ctx.n == tiny_graph.num_sets
        assert ctx.m == tiny_graph.num_elements
        from repro.coverage.bipartite import BipartiteGraph

        empty = ProblemContext(graph=BipartiteGraph(1))
        assert empty.m == 1
