"""A columnar problem stays column-backed through solve().

The distributed family shards the memory-mapped columns, merges sketch
columns and runs its round-2 greedy on the root's columns, so a
column-backed solve builds no input graph at all; streaming and offline
solvers still build it, once, on first read.
"""

from __future__ import annotations

import json
import re

import pytest

from repro import obs
from repro.api import ProblemContext, solve
from repro.coverage.io import open_columnar, write_columnar
from repro.datasets import planted_kcover_instance
from repro.distributed.partition import PARTITION_STRATEGIES
from repro.errors import InvalidInstanceError, SpecError

#: Budgets small enough that the merged sketch truncates (threshold < 1).
DIST_OPTIONS = {"num_machines": 3, "edge_budget": 300, "degree_cap": 15}

COMPARED = ("coverage_estimate", "coordinator_edges", "merged_threshold")


@pytest.fixture(scope="module")
def instance():
    return planted_kcover_instance(40, 800, k=4, planted_coverage=0.9, seed=13)


@pytest.fixture(scope="module")
def columnar_dir(instance, tmp_path_factory):
    """The instance's edges in ``graph.edges()`` order, so every routing
    strategy sees the rows the in-memory run sees."""
    path = tmp_path_factory.mktemp("workload") / "edges.cols"
    write_columnar(instance.graph.edges(), path, num_sets=instance.n)
    return path


@pytest.mark.parametrize("backend", [None, "words"])
@pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
def test_distributed_solve_on_columns_matches_the_instance(
    instance, columnar_dir, strategy, backend
):
    options = {**DIST_OPTIONS, "strategy": strategy, "coverage_backend": backend}
    columns = open_columnar(columnar_dir)
    from_columns = solve(columns, "kcover/distributed", k=4, seed=13, options=options)
    from_instance = solve(instance, "kcover/distributed", k=4, seed=13, options=options)
    assert from_columns.solution == from_instance.solution
    assert from_columns.coverage == from_instance.coverage
    assert from_columns.coverage_fraction == from_instance.coverage_fraction
    for key in COMPARED:
        assert from_columns.extra[key] == from_instance.extra[key], key
    assert from_columns.extra["merged_threshold"] < 1.0
    assert columns._graph_cache is None


def test_traced_distributed_solve_builds_no_graph(columnar_dir):
    columns = open_columnar(columnar_dir)
    with obs.tracing() as tracer:
        solve(columns, "kcover/distributed", k=4, seed=13, options=DIST_OPTIONS)
    names = {record.name for record in tracer.records()}
    assert "distributed.greedy" in names
    assert "reduce.materialize" not in names
    assert columns._graph_cache is None


def test_streaming_solver_builds_the_graph_once(instance, columnar_dir):
    columns = open_columnar(columnar_dir)
    first = solve(columns, "kcover/sketch", k=4, seed=13, options={"scale": 0.2})
    graph = columns._graph_cache
    assert graph is not None
    second = solve(columns, "offline/greedy", k=4, seed=13)
    assert columns._graph_cache is graph
    assert first.solution == solve(
        instance.graph, "kcover/sketch", k=4, seed=13, options={"scale": 0.2}
    ).solution
    assert second.coverage == instance.graph.coverage(second.solution)


class TestColumnBackedContext:
    def test_dimensions_come_from_the_columns(self, tmp_path):
        # num_elements in meta.json is a writer's override; m counts the
        # distinct elements, as the graph would.
        write_columnar([(0, 5), (2, 5), (2, 9)], tmp_path / "cols", num_elements=50)
        columns = open_columnar(tmp_path / "cols")
        ctx = ProblemContext(columns=columns, k=2)
        assert columns.num_elements == 50
        assert ctx.m == columns.to_graph().num_elements == 2
        assert ctx.n == columns.to_graph().num_sets == 3

    def test_empty_columns_keep_the_graph_conventions(self, tmp_path):
        write_columnar([], tmp_path / "cols")
        ctx = ProblemContext(columns=open_columnar(tmp_path / "cols"))
        assert (ctx.n, ctx.m, ctx.num_elements) == (1, 1, 0)
        assert ctx.coverage([0]) == 0

    def test_graph_is_built_on_first_read(self, columnar_dir, instance):
        columns = open_columnar(columnar_dir)
        ctx = ProblemContext(columns=columns, k=4)
        assert columns._graph_cache is None
        assert ctx.coverage([0, 1]) == instance.graph.coverage([0, 1])
        assert columns._graph_cache is None
        assert ctx.graph is columns.to_graph()

    def test_needs_a_graph_or_columns(self):
        with pytest.raises(SpecError, match="graph or columns"):
            ProblemContext(k=2)

    def test_out_of_range_set_id_is_rejected_before_the_map_phase(self, tmp_path):
        path = tmp_path / "cols"
        write_columnar([(0, 1), (3, 2), (1, 2)], path)
        meta = json.loads((path / "meta.json").read_text())
        meta["num_sets"] = 3
        (path / "meta.json").write_text(json.dumps(meta))
        message = re.escape("set id 3 out of range [0, 3)")
        with pytest.raises(InvalidInstanceError, match=message):
            ProblemContext(columns=open_columnar(path))
        with obs.tracing() as tracer:
            with pytest.raises(InvalidInstanceError, match=message):
                solve(path, "kcover/distributed", k=2)
        assert not [r for r in tracer.records() if r.name.startswith("map.")]
