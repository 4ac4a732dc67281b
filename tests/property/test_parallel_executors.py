"""Executor-invariance properties of the parallel runtime.

The core contract of :mod:`repro.parallel` is that the executor backend is a
*performance* knob, never a semantics knob: serial, thread and process runs
of any fan-out consumer must be byte-identical.  Pinned here on random
instances for

1. the distributed pipeline (solution, coverage estimate, merged threshold,
   per-machine loads — in-memory and columnar drive modes alike),
2. the columnar ``row_range`` path, where process workers re-open the mapped
   file from only (path, row bounds) — the zero-pickled-edge-data protocol,
3. the ensemble's best-of-R selection, and
4. the ``solve()`` facade, where ``executor`` / ``max_workers`` are solver
   options of ``kcover/distributed`` and ``kcover/ensemble`` (given through
   ``options=``, a spec's ``SolverSpec.options`` or the ``solve()``
   shorthand keywords).
"""

from __future__ import annotations

import pytest

from repro.api import ProblemSpec, RunSpec, SolverSpec, run, solve
from repro.core.ensemble import SketchEnsemble
from repro.core.params import SketchParams
from repro.coverage.io import write_columnar
from repro.datasets import planted_kcover_instance, zipf_instance
from repro.distributed import DistributedKCover
from repro.streaming.batches import EventBatch

EXECUTORS = ("serial", "thread", "process")
K = 4
SEEDS = (11, 47)


def _instances(seed):
    yield planted_kcover_instance(40, 900, k=K, planted_coverage=0.85, seed=seed)
    yield zipf_instance(36, 700, edges_per_set=60, k=K, seed=seed)


def _params(instance) -> SketchParams:
    return SketchParams.explicit(
        instance.n, instance.m, K, 0.2, edge_budget=350, degree_cap=15
    )


def _run_key(report):
    return (
        report.solution,
        report.coverage_estimate,
        report.merged_threshold,
        report.shard_edges,
        report.machine_stored_edges,
        report.coordinator_edges,
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("strategy", ["random", "by_set", "round_robin"])
def test_distributed_run_is_executor_invariant(seed, strategy):
    for instance in _instances(seed):
        edges = list(instance.graph.edges())
        reports = {
            executor: DistributedKCover(
                instance.n, instance.m, k=K, num_machines=3, strategy=strategy,
                params=_params(instance), seed=seed,
                executor=executor, max_workers=3,
            ).run(edges)
            for executor in EXECUTORS
        }
        for executor in EXECUTORS[1:]:
            assert _run_key(reports[executor]) == _run_key(reports["serial"]), (
                f"{executor} diverged from serial under '{strategy}' sharding"
            )
            assert reports[executor].executor == executor


@pytest.mark.parametrize("seed", SEEDS)
def test_columnar_row_range_is_executor_invariant(seed, tmp_path):
    """The zero-copy job protocol: children re-open the file and agree."""
    instance = planted_kcover_instance(40, 900, k=K, planted_coverage=0.85, seed=seed)
    path = tmp_path / f"w{seed}.cols"
    write_columnar(instance.graph.edges(), path, num_sets=instance.n)
    reports = {
        executor: DistributedKCover(
            instance.n, instance.m, k=K, num_machines=3, strategy="row_range",
            params=_params(instance), seed=seed,
            executor=executor, max_workers=3,
        ).run_from_columnar(path)
        for executor in EXECUTORS
    }
    for executor in EXECUTORS[1:]:
        assert _run_key(reports[executor]) == _run_key(reports["serial"])
    assert reports["process"].map_workers == 3


@pytest.mark.parametrize("executor", EXECUTORS[1:])
def test_ensemble_best_of_r_is_executor_invariant(executor):
    instance = planted_kcover_instance(40, 900, k=K, planted_coverage=0.85, seed=5)
    results = []
    for backend in ("serial", executor):
        ensemble = SketchEnsemble(
            _params(instance), replicas=4, seed=5, executor=backend, max_workers=4
        )
        ensemble.process_batch(EventBatch.from_edges(instance.graph.edges()))
        results.append(ensemble.best_k_cover(K))
    assert results[0] == results[1]


@pytest.mark.parametrize("executor", EXECUTORS)
def test_solve_facade_threads_executor_through(executor):
    instance = planted_kcover_instance(40, 900, k=K, planted_coverage=0.85, seed=9)
    report = solve(
        instance,
        "kcover/distributed",
        k=K,
        seed=9,
        executor=executor,
        max_workers=2,
        options={"num_machines": 3, "edge_budget": 350, "degree_cap": 15},
    )
    assert report.extra["executor"] == executor
    reference = solve(
        instance,
        "kcover/distributed",
        k=K,
        seed=9,
        options={"num_machines": 3, "edge_budget": 350, "degree_cap": 15},
    )
    assert report.solution == reference.solution
    assert report.extra["merged_threshold"] == reference.extra["merged_threshold"]
    assert report.extra["machine_load_max"] == reference.extra["machine_load_max"]


def test_spec_executor_round_trips_and_drives_solve():
    spec = RunSpec(
        problem=ProblemSpec(
            problem="k_cover",
            k=K,
            dataset="planted_kcover",
            dataset_args={"num_sets": 40, "num_elements": 900, "k": K, "seed": 3},
        ),
        solver=SolverSpec(
            "kcover/distributed",
            {
                "num_machines": 3,
                "edge_budget": 350,
                "degree_cap": 15,
                "executor": "thread",
                "max_workers": 2,
            },
        ),
    )
    assert RunSpec.from_dict(spec.to_dict()) == spec
    (report,) = run(spec)
    assert report.extra["executor"] == "thread"
    assert report.extra["map_workers"] == 2


@pytest.mark.parametrize("executor", EXECUTORS[1:])
def test_solve_ensemble_is_executor_invariant(executor):
    instance = planted_kcover_instance(40, 900, k=K, planted_coverage=0.85, seed=21)
    options = {"replicas": 3, "edge_budget": 350, "degree_cap": 15}
    serial, parallel = (
        solve(
            instance,
            "kcover/ensemble",
            k=K,
            seed=21,
            options={**options, "executor": backend, "max_workers": 2},
        )
        for backend in ("serial", executor)
    )
    assert parallel.solution == serial.solution
    assert parallel.coverage == serial.coverage
    assert parallel.space_peak == serial.space_peak
    assert parallel.extra == serial.extra
