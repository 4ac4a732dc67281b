"""Unit tests for the concurrent query driver (repro.serve.driver)."""

from __future__ import annotations

import pytest

from repro.api import QuerySpec
from repro.datasets import planted_kcover_instance
from repro.errors import SpecError
from repro.serve import QueryEngine, drive_queries
from repro.serve.driver import LoadReport, percentile


@pytest.fixture(scope="module")
def engine():
    instance = planted_kcover_instance(40, 800, k=5, seed=17)
    return QueryEngine(instance.graph, seed=0, batch_size=256)


def _specs(count: int) -> list[QuerySpec]:
    return [
        QuerySpec(problem="k_cover", k=1 + (i % 4), options={"scale": 0.1})
        for i in range(count)
    ]


class TestPercentile:
    def test_nearest_rank(self):
        values = [0.1, 0.2, 0.3, 0.4, 0.5]
        assert percentile(values, 50) == 0.3
        assert percentile(values, 99) == 0.5
        assert percentile([0.7], 50) == 0.7

    def test_order_independent(self):
        assert percentile([0.5, 0.1, 0.3], 50) == 0.3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestDriveQueries:
    def test_results_are_input_ordered_and_identical(self, engine):
        specs = _specs(12)
        sequential = [engine.query(spec) for spec in specs]
        load = drive_queries(engine, specs, clients=4, executor="thread")
        assert load.num_queries == 12
        assert [r.solution for r in load.reports] == [
            r.solution for r in sequential
        ]
        assert len(load.latencies) == 12
        assert all(latency >= 0.0 for latency in load.latencies)

    def test_a_cold_store_under_threads_matches_sequential_queries(self):
        """Concurrent hits on a fresh store share the columns' lazily built
        CSR and kernel; every answer equals a sequential one."""
        instance = planted_kcover_instance(40, 800, k=5, seed=17)
        specs = [
            QuerySpec(
                problem="k_cover",
                k=1 + (i % 4),
                forbidden=(0, 3) if i % 3 == 0 else (),
                coverage_backend="words" if i % 2 else None,
                options={"scale": 0.1},
            )
            for i in range(24)
        ]
        sequential = QueryEngine(instance.graph, seed=0, batch_size=256)
        expected = [sequential.query(spec) for spec in specs]
        cold = QueryEngine(instance.graph, seed=0, batch_size=256)
        load = drive_queries(cold, specs, clients=4, executor="thread")
        assert [(r.solution, r.coverage) for r in load.reports] == [
            (r.solution, r.coverage) for r in expected
        ]
        assert cold.store.stats()["builds"] == sequential.store.stats()["builds"]

    def test_accepts_dict_specs(self, engine):
        specs = [
            {"problem": "k_cover", "k": 2, "options": {"scale": 0.1}},
            QuerySpec(problem="k_cover", k=3, options={"scale": 0.1}),
        ]
        load = drive_queries(engine, specs, clients=2, executor="serial")
        assert load.num_queries == 2
        assert load.executor == "serial"

    def test_rejects_process_executors(self, engine):
        # A process pool would pickle private engine copies and benchmark
        # cold caches — the driver only accepts shared-memory executors.
        with pytest.raises(SpecError, match="thread"):
            drive_queries(engine, _specs(2), executor="process")

    def test_load_report_dict(self):
        report = LoadReport(
            clients=2,
            executor="thread",
            workers=2,
            latencies=[0.010, 0.020],
            reports=[],
            wall_seconds=0.5,
        )
        data = report.as_dict()
        assert data["clients"] == 2
        assert data["num_queries"] == 2
        assert data["p50_seconds"] == 0.010
        assert data["p99_seconds"] == 0.020
        assert data["qps"] == pytest.approx(4.0)

    def test_thread_load_records_execution(self, engine):
        load = drive_queries(engine, _specs(8), clients=8, executor="thread")
        assert load.clients == 8
        assert load.executor in ("thread", "serial")  # serial under sandbox
        assert load.workers >= 1
