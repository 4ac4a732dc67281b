"""Observability overhead: the disabled path must be (nearly) free.

``repro.obs`` instruments the coverage-kernel primitives, the streaming
runner, the parallel mapper and the serving driver — permanently, at import
time.  The whole design rests on one promise: while the process-global
switch is **off**, that instrumentation costs nothing measurable.  This
benchmark turns the promise into a CI gate:

* **kernel hot path** — :func:`repro.coverage.bitset.pack_rows` and
  :func:`~repro.coverage.bitset.popcount_rows` are the raw primitives
  wrapped in an enabled-gated timer; with obs disabled the wrapper is one
  ``enabled()`` check.  Each wrapper's ``__wrapped__`` is the raw primitive
  exactly as it was before wrapping, giving a true no-obs baseline in the
  same process.
  The gate: instrumented-disabled popcount+pack throughput within
  ``MAX_DISABLED_OVERHEAD`` of the raw baseline, min-of-``ROUNDS`` timing
  on realistic marginal-gain shaped arrays.
* **span no-op path** — ``obs.span(...)`` with the switch off returns a
  shared null object after a single attribute load; its per-call cost is
  recorded (and sanity-bounded) so a regression that starts allocating on
  the disabled path shows up in the trajectory.

Identity is asserted too: the instrumented primitives' outputs are
bit-identical to the raw ones' (the full matrix is property-tested
in ``tests/property/test_obs_identity.py``).

Results land in ``results/obs_overhead.json`` + ``.md`` and are folded
into ``trajectory.json`` by ``benchmarks/collect_results.py``.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from benchmarks.common import RESULTS_DIR, print_table, write_table
from repro import obs
from repro.coverage.bitset import pack_rows, popcount_rows
from repro.utils.rng import spawn_rng
from repro.utils.tables import Table

SEED = 0
#: Marginal-gain shaped workload: one packed row per candidate set.
NUM_ROWS = 256
NUM_ELEMENTS = 8192
#: pack + popcount calls per timed loop (popcount dominates real greedy).
POPCOUNTS_PER_LOOP = 60
PACKS_PER_LOOP = 3
#: min-of-ROUNDS timing; the loops alternate variants to share cache state.
ROUNDS = 9
#: The gate: disabled instrumentation within 2% of the raw primitives.
MAX_DISABLED_OVERHEAD = 1.02
#: Sanity bound on the disabled span path (measured ~0.1 µs; a regression
#: that allocates a real Span when disabled lands far above this).
MAX_DISABLED_SPAN_MICROS = 5.0
SPAN_CALLS = 200_000


def _dense_rows() -> np.ndarray:
    rng = spawn_rng(SEED, "bench-obs-overhead")
    return rng.random((NUM_ROWS, NUM_ELEMENTS)) < 0.2


def _kernel_loop(pack, popcount, dense, packed) -> float:
    """One timed loop of the greedy-shaped kernel mix; returns seconds."""
    start = time.perf_counter()
    for _ in range(PACKS_PER_LOOP):
        pack(dense)
    for _ in range(POPCOUNTS_PER_LOOP):
        popcount(packed, 1)
    return time.perf_counter() - start


def _measure_kernels() -> dict[str, float]:
    raw_pack, raw_popcount = pack_rows.__wrapped__, popcount_rows.__wrapped__
    dense = _dense_rows()
    packed = raw_pack(dense)

    # Identity first: the wrapper must never change a result, only time it.
    assert np.array_equal(pack_rows(dense), packed)
    assert np.array_equal(popcount_rows(packed, 1), raw_popcount(packed, 1))

    raw_best = float("inf")
    instrumented_best = float("inf")
    for _ in range(ROUNDS):
        raw_best = min(raw_best, _kernel_loop(raw_pack, raw_popcount, dense, packed))
        instrumented_best = min(
            instrumented_best, _kernel_loop(pack_rows, popcount_rows, dense, packed)
        )
    return {
        "raw_seconds": raw_best,
        "instrumented_seconds": instrumented_best,
        "overhead_ratio": instrumented_best / raw_best,
    }


def _measure_span_noop() -> dict[str, float]:
    span = obs.span
    start = time.perf_counter()
    for _ in range(SPAN_CALLS):
        span("bench.noop")
    elapsed = time.perf_counter() - start
    return {
        "calls": SPAN_CALLS,
        "micros_per_call": elapsed / SPAN_CALLS * 1e6,
    }


def _measure() -> dict[str, dict[str, float]]:
    return {"kernel": _measure_kernels(), "span": _measure_span_noop()}


@pytest.mark.benchmark(group="obs-overhead")
def test_disabled_instrumentation_is_within_two_percent(benchmark):
    """Gate: obs-disabled kernel path <= 2% over the raw primitives."""
    obs.disable()
    assert not obs.enabled()
    measured = benchmark.pedantic(_measure, rounds=1, iterations=1)
    kernel = measured["kernel"]
    span = measured["span"]

    table = Table(["path", "baseline_ms", "instrumented_ms", "overhead"])
    table.add_row(
        path="kernel pack+popcount",
        baseline_ms=kernel["raw_seconds"] * 1e3,
        instrumented_ms=kernel["instrumented_seconds"] * 1e3,
        overhead=f"{(kernel['overhead_ratio'] - 1.0) * 100:+.2f}%",
    )
    table.add_row(
        path="obs.span() disabled no-op",
        baseline_ms=0.0,
        instrumented_ms=span["micros_per_call"] * SPAN_CALLS / 1e3,
        overhead=f"{span['micros_per_call']:.3f}us/call",
    )
    print_table("Observability overhead — disabled path", table)
    write_table(
        "obs_overhead",
        "Observability overhead with the switch off",
        table,
        notes=[
            f"{NUM_ROWS}x{NUM_ELEMENTS} bool rows; "
            f"{PACKS_PER_LOOP} packs + {POPCOUNTS_PER_LOOP} row-popcounts "
            f"per loop, min of {ROUNDS} rounds per variant.",
            "Baseline is each primitive's __wrapped__: the raw pack/popcount "
            "exactly as defined before timing was wrapped on — a true no-obs "
            "build.",
            f"gate: instrumented/raw <= {MAX_DISABLED_OVERHEAD} "
            f"(measured {kernel['overhead_ratio']:.4f}).",
            f"disabled obs.span() costs {span['micros_per_call']:.3f} us/call "
            "(one attribute load + returning the shared null span).",
        ],
    )
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "obs_overhead.json").write_text(
        json.dumps(
            {
                "rows": NUM_ROWS,
                "elements": NUM_ELEMENTS,
                "rounds": ROUNDS,
                "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
                "kernel": kernel,
                "span_noop": span,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    assert kernel["overhead_ratio"] <= MAX_DISABLED_OVERHEAD, (
        f"disabled instrumentation costs "
        f"{(kernel['overhead_ratio'] - 1.0) * 100:.2f}% on the kernel hot "
        f"path (gate: <= {(MAX_DISABLED_OVERHEAD - 1.0) * 100:.0f}%)"
    )
    assert span["micros_per_call"] <= MAX_DISABLED_SPAN_MICROS, (
        f"disabled obs.span() costs {span['micros_per_call']:.2f} us/call — "
        "the no-op path has stopped being free"
    )
