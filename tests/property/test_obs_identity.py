"""Observability is free: tracing must never change a solver's answer.

The hard contract of :mod:`repro.obs` is that the switch is invisible to
results.  Pinned here two ways:

1. **Byte-identity** — for every solver family (streaming sketch, set
   cover, outliers, offline, distributed) and for the distributed pipeline
   under thread and process executors, a run with tracing enabled matches
   the untraced run on everything except timings and the documented ``obs``
   extra block.
2. **Stitching determinism** — the span tree a process-pool run assembles
   from shipped-home worker captures has exactly the serial run's shape:
   same names, same attributes, same nesting.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.api import solve
from repro.datasets import planted_kcover_instance, planted_setcover_instance

DIST_OPTIONS = {"num_machines": 3, "edge_budget": 350, "degree_cap": 15}

#: One representative per solver family archetype.
FAMILIES = [
    ("kcover/sketch", "kcover", {"options": {"scale": 0.2}}),
    ("kcover/ensemble", "kcover", {"options": {"scale": 0.2, "replicas": 2}}),
    ("offline/greedy", "kcover", {}),
    ("kcover/distributed", "kcover", {"options": dict(DIST_OPTIONS)}),
    (
        "setcover/sketch",
        "setcover",
        {"options": {"epsilon": 0.5, "rounds": 2, "max_guesses": 12}},
    ),
    (
        "outliers/sketch",
        "setcover",
        {
            "problem_kind": "set_cover_outliers",
            "outlier_fraction": 0.1,
            "options": {"max_guesses": 12},
        },
    ),
]


@pytest.fixture(scope="module")
def instances():
    return {
        "kcover": planted_kcover_instance(40, 800, k=4, planted_coverage=0.9, seed=13),
        "setcover": planted_setcover_instance(30, 400, cover_size=6, seed=17),
    }


def _identity_key(report):
    """Everything but timings (real clock) and the documented obs block."""
    extra = {k: v for k, v in report.extra.items() if k != "obs"}
    return (
        report.algorithm,
        report.arrival_model,
        report.solution,
        report.coverage,
        report.coverage_fraction,
        report.solution_size,
        report.passes,
        report.space_peak,
        report.space_budget,
        report.stream_events,
        extra,
    )


class TestTracingByteIdentity:
    @pytest.mark.parametrize(
        "solver, instance_key, kwargs",
        FAMILIES,
        ids=[solver for solver, _, _ in FAMILIES],
    )
    def test_every_family_is_tracing_invariant(
        self, instances, solver, instance_key, kwargs
    ):
        instance = instances[instance_key]
        plain = solve(instance, solver, seed=13, **kwargs)
        with obs.tracing():
            traced = solve(instance, solver, seed=13, **kwargs)
        assert _identity_key(traced) == _identity_key(plain)
        assert "obs" not in plain.extra
        assert traced.extra["obs"]["spans"] >= 1
        assert "main" in traced.extra["obs"]["lanes"]

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_distributed_executors_are_tracing_invariant(self, instances, executor):
        instance = instances["kcover"]
        kwargs = dict(
            seed=13, executor=executor, max_workers=3, options=dict(DIST_OPTIONS)
        )
        plain = solve(instance, "kcover/distributed", **kwargs)
        with obs.tracing():
            traced = solve(instance, "kcover/distributed", **kwargs)
        assert _identity_key(traced) == _identity_key(plain)

    def test_repeated_traced_runs_agree(self, instances):
        instance = instances["kcover"]
        runs = []
        for _ in range(2):
            with obs.tracing():
                runs.append(
                    solve(instance, "kcover/distributed", seed=13,
                          options=dict(DIST_OPTIONS))
                )
        assert _identity_key(runs[0]) == _identity_key(runs[1])
        assert runs[0].extra["obs"] == runs[1].extra["obs"]


class TestProcessStitching:
    def _traced_tree(self, instance, executor):
        with obs.tracing() as tracer:
            solve(
                instance,
                "kcover/distributed",
                seed=13,
                executor=executor,
                max_workers=3,
                options=dict(DIST_OPTIONS),
            )
        return obs.span_tree(tracer.records())

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_worker_spans_stitch_to_the_serial_tree(self, instances, executor):
        instance = instances["kcover"]
        serial = self._traced_tree(instance, "serial")
        # The first process solve may start the live pool; the one after it
        # runs on that pool, so its tree is the solve's alone.
        self._traced_tree(instance, executor)
        parallel = self._traced_tree(instance, executor)
        assert parallel == serial

    def test_the_solve_that_starts_the_pool_shows_it_once(
        self, instances, fresh_process_pools
    ):
        instance = instances["kcover"]
        serial = self._traced_tree(instance, "serial")
        first = self._traced_tree(instance, "process")
        starts = []

        def without_pool_start(nodes):
            kept = []
            for node in nodes:
                if node["name"] == "parallel.pool_start":
                    starts.append(node)
                else:
                    kept.append({**node, "children": without_pool_start(node["children"])})
            return kept

        assert without_pool_start(first) == serial
        assert starts == [
            {"name": "parallel.pool_start", "attrs": {"workers": 3}, "children": []}
        ]
        assert self._traced_tree(instance, "process") == serial

    def test_one_stitched_trace_covers_map_reduce_and_greedy(self, instances):
        tree = self._traced_tree(instances["kcover"], "process")
        assert [node["name"] for node in tree] == ["solve"]

        def names(nodes):
            collected = set()
            for node in nodes:
                collected.add(node["name"])
                collected |= names(node["children"])
            return collected

        seen = names(tree)
        assert {"map.machine", "reduce.fold", "distributed.greedy"} <= seen
