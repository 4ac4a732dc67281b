"""Query-serving latency: one sketch build, then a flood of cached queries.

The paper's promise is that a single pass builds a sketch that answers *many*
coverage queries; :mod:`repro.serve` realises it as a cached query layer.
This benchmark measures the promise as a latency contract:

* **cold** — each query answered the honest way, a full ``solve()`` from the
  raw instance (stream + sketch build + greedy extraction), timed per call;
* **warm** — a :class:`~repro.serve.QueryEngine` whose store is sized to the
  sweep's working set, driven by ``CLIENTS`` concurrent thread clients
  through :func:`repro.serve.drive_queries`, all queries hitting cached
  sketches (the store's stats are asserted: zero rebuilds during the drive);
* **identity** — the served answer for a spot-check spec must equal the
  fresh ``solve()`` answer (the full byte-identity matrix lives in
  ``tests/serve/test_serving_identity.py``).

The CI gate is the cache and the identity: every query of the drive must
hit the store, and served answers must equal fresh solves.  The warm p50's
speedup over the mean cold solve is recorded, not gated: every faster cold
solve shrinks it, and under 8 thread clients the warm p50 is bounded by the
interpreter lock.  The e2e benchmark's ``serve-mixed`` workload gates the
serving path's latency.  p50/p99/QPS land in
``results/serving_latency.json`` + ``.md`` and are archived by the
bench-smoke job.
"""

from __future__ import annotations

import json
import time

import pytest

from benchmarks.common import RESULTS_DIR, print_table, write_table
from repro.api import QuerySpec, StreamSpec, solve
from repro.datasets import planted_kcover_instance
from repro.serve import QueryEngine, SketchStore, drive_queries
from repro.utils.tables import Table

SEED = 0
BATCH = 1024
#: Serving workload: larger than the Table-1 instances so the one-pass build
#: a cold query pays (streaming ~24k edges) dominates the cached greedy
#: extraction a warm query pays — the gap the cache is supposed to win.
SIZES = {"n": 160, "m": 20_000, "k": 10, "seed": 401}
#: Concurrent clients for the warm drive (the issue's floor is 8).
CLIENTS = 8
#: Total queries in the warm drive; k cycles over the sweep below.
QUERIES = 64
#: k values the query mix sweeps — each derives its own degree cap, so each
#: needs its own cache entry.
K_SWEEP = tuple(range(1, 11))
#: Store capacity sized to the sweep's working set.  Undersizing it below
#: ``len(K_SWEEP)`` makes every query thrash the LRU and rebuild — the
#: benchmark asserts zero builds during the drive to catch exactly that.
STORE_CAPACITY = 16
#: k values timed for the cold baseline (full solve() per query).
COLD_KS = (4, 8, 10)
OPTIONS = {"scale": 0.1}


@pytest.fixture(scope="module")
def serving_instance():
    return planted_kcover_instance(
        SIZES["n"], SIZES["m"], k=SIZES["k"], planted_coverage=0.9,
        seed=SIZES["seed"],
    )


def _spec(k: int) -> QuerySpec:
    return QuerySpec(problem="k_cover", k=k, options=dict(OPTIONS))


def _cold_solve(instance, k: int):
    return solve(
        instance.graph,
        "kcover/sketch",
        problem_kind="k_cover",
        k=k,
        seed=SEED,
        options=dict(OPTIONS),
        stream=StreamSpec(order="random", seed=SEED, batch_size=BATCH),
    )


def _measure(instance):
    cold_seconds: dict[int, float] = {}
    cold_reports = {}
    for k in COLD_KS:
        start = time.perf_counter()
        cold_reports[k] = _cold_solve(instance, k)
        cold_seconds[k] = time.perf_counter() - start

    engine = QueryEngine(
        instance.graph,
        store=SketchStore(capacity=STORE_CAPACITY),
        seed=SEED,
        batch_size=BATCH,
    )
    specs = [_spec(K_SWEEP[i % len(K_SWEEP)]) for i in range(QUERIES)]
    warm_start = time.perf_counter()
    for k in K_SWEEP:
        engine.query(_spec(k))
    warm_build_seconds = time.perf_counter() - warm_start
    builds_after_warmup = engine.store.stats()["builds"]

    load = drive_queries(engine, specs, clients=CLIENTS, executor="thread")
    return {
        "cold_seconds": cold_seconds,
        "cold_reports": cold_reports,
        "engine": engine,
        "warm_build_seconds": warm_build_seconds,
        "builds_after_warmup": builds_after_warmup,
        "load": load,
    }


@pytest.mark.benchmark(group="serving-latency")
def test_warm_cache_serves_every_query_from_cache(benchmark, serving_instance):
    """Record cold-vs-warm latency; gate that the drive hits the cache and
    that served answers equal fresh solves."""
    measured = benchmark.pedantic(
        _measure, args=(serving_instance,), rounds=1, iterations=1
    )
    engine = measured["engine"]
    load = measured["load"]
    cold_seconds = measured["cold_seconds"]
    cold_mean = sum(cold_seconds.values()) / len(cold_seconds)
    speedup_p50 = cold_mean / load.p50
    speedup_mean = cold_mean / load.mean_latency

    # The drive itself must have run entirely out of cache: every build
    # happened during warm-up, none under load.
    stats = engine.store.stats()
    assert stats["builds"] == measured["builds_after_warmup"], (
        f"the concurrent drive rebuilt sketches ({stats['builds']} builds, "
        f"{measured['builds_after_warmup']} at warm-up) — store capacity "
        f"{STORE_CAPACITY} no longer covers the {len(K_SWEEP)}-entry sweep"
    )
    assert stats["evictions"] == 0

    # Served answers are the same reports solve() produces (spot check; the
    # full matrix is property-tested in tests/serve).
    for k in COLD_KS:
        served = engine.query(_spec(k))
        assert served.solution == measured["cold_reports"][k].solution, k

    table = Table(
        ["phase", "queries", "clients", "p50_ms", "p99_ms", "mean_ms", "qps"]
    )
    for k in COLD_KS:
        table.add_row(
            phase=f"cold solve() k={k}", queries=1, clients=1,
            p50_ms=cold_seconds[k] * 1e3, p99_ms=cold_seconds[k] * 1e3,
            mean_ms=cold_seconds[k] * 1e3, qps=1.0 / cold_seconds[k],
        )
    table.add_row(
        phase=f"warm serve ({load.executor})", queries=load.num_queries,
        clients=load.clients, p50_ms=load.p50 * 1e3, p99_ms=load.p99 * 1e3,
        mean_ms=load.mean_latency * 1e3, qps=load.qps,
    )
    print_table("Query serving — cold solve vs warm cached engine", table)
    write_table(
        "serving_latency",
        "Cached-sketch query serving latency under concurrent clients",
        table,
        notes=[
            f"planted k-cover serving instance (n = {SIZES['n']}, m = {SIZES['m']}); "
            f"k sweep {K_SWEEP[0]}..{K_SWEEP[-1]}, {QUERIES} queries, "
            f"{CLIENTS} thread clients, store capacity {STORE_CAPACITY}.",
            f"warm-up built {measured['builds_after_warmup']} sketch entries in "
            f"{measured['warm_build_seconds']:.3f}s; the drive hit cache on every query.",
            f"warm p50 speedup over cold mean: {speedup_p50:.1f}x (recorded, not gated).",
            "Served answers are asserted equal to fresh solve() answers.",
        ],
    )
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "serving_latency.json").write_text(
        json.dumps(
            {
                "clients": CLIENTS,
                "queries": QUERIES,
                "k_sweep": list(K_SWEEP),
                "store_capacity": STORE_CAPACITY,
                "cold_seconds": {str(k): s for k, s in cold_seconds.items()},
                "cold_mean_seconds": cold_mean,
                "warm_build_seconds": measured["warm_build_seconds"],
                "warm": load.as_dict(),
                "speedup_p50": speedup_p50,
                "speedup_mean": speedup_mean,
                "store": stats,
            },
            indent=2,
        ),
        encoding="utf-8",
    )
