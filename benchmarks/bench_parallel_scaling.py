"""Worker-count scaling of the distributed map phase on real cores.

The map phase is embarrassingly parallel — each simulated machine owns an
independent, memory-mapped row slice of the columnar workload — so running
the machines through the :mod:`repro.parallel` process executor should cut
wall-clock roughly by the worker count.  This benchmark measures that curve:

* **instances** — two uniform-random columnar workloads (written with
  :func:`repro.coverage.io.write_columnar_columns`, so generation stays
  whole-array even at tens of millions of edges);
* **executors** — ``serial`` (the reference), ``thread`` and ``process`` at
  worker counts {1, 2, 4}; under ``process`` every child receives only a
  :class:`~repro.distributed.worker.ShardRecomputeJob` (path + routing
  parameters) and maps its own row slice of the file, so zero edge data is
  pickled;
* **identity** — every cell must report exactly the serial run's solution,
  coverage estimate, merged threshold and per-machine loads (the executor
  subsystem's core contract, also property-tested in
  ``tests/property/test_parallel_executors.py``).

The CI gate: on the largest instance the process backend at 4 workers must
finish at least ``MIN_SPEEDUP``× faster than the serial loop.  The gate only
arms when the runner actually has 4 usable CPUs (a single-core sandbox
cannot overlap CPU-bound workers, so the curve is recorded but not
asserted); results land in ``results/parallel_scaling.json`` + ``.md``
either way and are archived by the bench-smoke job.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from benchmarks.common import RESULTS_DIR, parallel_sweep, print_table, write_table
from repro.core.params import SketchParams
from repro.coverage.io import write_columnar_columns
from repro.distributed import DistributedKCover
from repro.parallel import usable_cpus
from repro.utils.rng import spawn_rng
from repro.utils.tables import Table

K = 10
N = 120
M = 200_000
MACHINES = 4
SEED = 1900
#: (label, number of edges) per columnar instance, smallest first.
INSTANCES = (("small", 6_000_000), ("large", 60_000_000))
WORKER_COUNTS = (1, 2, 4)
#: Required process-over-serial wall-clock ratio on the largest instance at
#: 4 workers.  Measured ~2.5-3x on a 4-core runner; 2x is the acceptance
#: floor with CI headroom.  Only armed when >= 4 CPUs are usable.
MIN_SPEEDUP = 2.0


def _write_instance(tmp_path, label: str, num_edges: int):
    rng = spawn_rng(SEED + num_edges, "bench-parallel-scaling-instance")
    path = tmp_path / f"{label}.cols"
    write_columnar_columns(
        rng.integers(N, size=num_edges, dtype=np.uint64),
        rng.integers(M, size=num_edges, dtype=np.uint64),
        path,
        num_sets=N,
        num_elements=M,
    )
    return path


def _runner(executor: str | None, workers: int | None) -> DistributedKCover:
    params = SketchParams.explicit(N, M, K, 0.2, edge_budget=6 * N, degree_cap=40)
    return DistributedKCover(
        N, M, k=K, num_machines=MACHINES, strategy="row_range",
        params=params, seed=SEED, executor=executor, max_workers=workers,
    )


def _assert_identical(report, reference) -> None:
    assert report.solution == reference.solution
    assert report.coverage_estimate == reference.coverage_estimate
    assert report.merged_threshold == reference.merged_threshold
    assert report.machine_stored_edges == reference.machine_stored_edges
    assert report.shard_edges == reference.shard_edges


def _scaling_table(tmp_path) -> tuple[Table, dict[str, float]]:
    table = Table(
        [
            "instance",
            "input_edges",
            "executor",
            "workers",
            "seconds",
            "edges_per_sec",
            "speedup_vs_serial",
        ]
    )
    gate: dict[str, float] = {}
    for label, num_edges in INSTANCES:
        path = _write_instance(tmp_path, label, num_edges)
        start = time.perf_counter()
        reference = _runner(None, None).run_from_columnar(path)
        serial_seconds = time.perf_counter() - start
        table.add_row(
            instance=label, input_edges=num_edges, executor="serial", workers=1,
            seconds=serial_seconds, edges_per_sec=num_edges / serial_seconds,
            speedup_vs_serial=1.0,
        )
        for executor in ("thread", "process"):
            for workers in WORKER_COUNTS:
                runner = _runner(executor, workers)
                start = time.perf_counter()
                report = runner.run_from_columnar(path)
                seconds = time.perf_counter() - start
                _assert_identical(report, reference)
                assert report.executor == executor and report.map_workers == workers
                table.add_row(
                    instance=label, input_edges=num_edges, executor=executor,
                    workers=workers, seconds=seconds,
                    edges_per_sec=num_edges / seconds,
                    speedup_vs_serial=serial_seconds / seconds,
                )
                if executor == "process" and workers == max(WORKER_COUNTS):
                    gate[label] = serial_seconds / seconds
    return table, gate


@pytest.mark.benchmark(group="parallel-scaling")
def test_process_executor_scales_the_map_phase(benchmark, tmp_path):
    """Record the worker-count scaling curve; gate process >= 2x serial."""
    table, gate = benchmark.pedantic(
        _scaling_table, args=(tmp_path,), rounds=1, iterations=1
    )
    cpus = usable_cpus()
    gate_armed = cpus >= max(WORKER_COUNTS)

    # Byte-identity across executors also holds through the solve() facade,
    # where executor/max_workers are plain solver options — on a small
    # instance, to keep the three extra runs cheap.
    from repro.api import solve

    tiny_path = _write_instance(tmp_path, "tiny", 200_000)
    facade_reports = parallel_sweep(
        lambda executor: solve(
            tiny_path, "kcover/distributed", k=K, seed=SEED,
            options={"num_machines": MACHINES, "strategy": "row_range",
                     "edge_budget": 6 * N, "degree_cap": 40,
                     "executor": executor, "max_workers": 2},
        ),
        ["serial", "thread", "process"],
    )
    for report in facade_reports:
        assert report.solution == facade_reports[0].solution
        assert report.extra["merged_threshold"] == facade_reports[0].extra["merged_threshold"]
        assert report.extra["machine_load_max"] == facade_reports[0].extra["machine_load_max"]
    assert facade_reports[2].extra["executor"] == "process"

    print_table("Distributed map phase — executor scaling", table)
    write_table(
        "parallel_scaling",
        "Distributed map-phase wall-clock by executor backend and worker count",
        table,
        notes=[
            f"uniform-random workloads, n = {N}, m = {M}, "
            f"{MACHINES} machines, 'row_range' sharding, sketch budget 6·n.",
            f"usable CPUs at run time: {cpus}; the >= {MIN_SPEEDUP}x gate is "
            + ("armed." if gate_armed else "recorded but not armed (needs 4)."),
            "Process workers receive only (path, row bounds, params) — the "
            "children re-open the memory-mapped columns themselves.",
            "Every cell is asserted byte-identical to the serial run.",
        ],
    )
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "parallel_scaling.json").write_text(
        json.dumps(
            {
                "machines": MACHINES,
                "worker_counts": list(WORKER_COUNTS),
                "usable_cpus": cpus,
                "min_speedup": MIN_SPEEDUP,
                "gate_armed": gate_armed,
                "process_speedup_at_max_workers": gate,
                "rows": table.rows,
            },
            indent=2,
        ),
        encoding="utf-8",
    )
    if not gate_armed:
        pytest.skip(
            f"scaling gate needs {max(WORKER_COUNTS)} usable CPUs, found {cpus}; "
            "curve recorded in results/parallel_scaling.json"
        )
    largest = INSTANCES[-1][0]
    assert gate[largest] >= MIN_SPEEDUP, (
        f"process executor at {max(WORKER_COUNTS)} workers reached only "
        f"{gate[largest]:.2f}x over serial on the '{largest}' instance "
        f"(required {MIN_SPEEDUP}x)"
    )
