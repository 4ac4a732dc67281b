"""Measurement core: set-up, timed loops, the traced pass and the report.

One ``measure`` call runs one workload in this interpreter:

* ``trace=0`` sets the workload up ``SETUP_REPS`` times (the median is
  ``setup_s``), runs its closed loop for the requested seconds with the
  library's tracing off, checks every answer with the independent checker
  and reports the end-to-end metrics named in ``BENCHMARK.json``.
* ``trace=1`` runs the traced pass instead: harness spans around each call
  into a layer, the per-layer self-time table, a Perfetto-loadable trace
  file, and the per-layer metrics named in ``BENCHMARK.json``.

A layer's self time is its span's duration minus the part of that interval
its child spans cover.  Timings are medians with their quartiles and sample
count; a tail percentile is reported only when at least ten samples lie
beyond it.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from benchmarks.e2e.checker import CoverageChecker
from benchmarks.e2e.workloads import (
    REFERENCE_KERNEL_S,
    BatchWorkload,
    WORK_DIR,
    WORKLOADS,
    check_outputs,
    host_slowness,
    smoothed,
)
from repro.obs import SpanRecord, Tracer, percentile, write_trace

__all__ = [
    "ROOT",
    "SETUP_REPS",
    "load_spec",
    "quartiles",
    "tail",
    "summarize",
    "children_of",
    "covered_seconds",
    "self_seconds",
    "environment",
    "measure",
    "contract_line",
]

ROOT = Path(__file__).resolve().parents[2]

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def load_spec() -> dict[str, Any]:
    """The benchmark definition: metric names, units, bounds, workloads."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #
def quartiles(values: Iterable[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` cuts them."""
    data = [float(value) for value in values]
    if not data:
        raise ValueError("quartiles of an empty sample")
    if len(data) == 1:
        return data[0], data[0], data[0]
    q1, median, q3 = statistics.quantiles(data, n=4)
    return q1, median, q3


def tail(samples: Sequence[float]) -> tuple[float, float] | None:
    """``(percentile, value)`` of the highest percentile with at least
    ``MIN_BEYOND`` samples beyond it (nearest rank), or ``None``."""
    count = len(samples)
    for q in TAIL_PERCENTILES:
        if count - math.ceil(q / 100.0 * count) >= MIN_BEYOND:
            return q, percentile(samples, q)
    return None


def summarize(samples: Sequence[float], unit: str) -> dict[str, Any]:
    """Median, quartiles and sample count of one metric's samples."""
    q1, median, q3 = quartiles(samples)
    summary: dict[str, Any] = {
        "value": median,
        "unit": unit,
        "samples": len(samples),
        "q1": q1,
        "q3": q3,
    }
    tail_point = tail(samples)
    if tail_point is not None:
        summary["tail_percentile"], summary["tail"] = tail_point
    return summary


# --------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------- #
def children_of(records: Iterable[SpanRecord]) -> dict[int, list[SpanRecord]]:
    """Span id -> its direct child spans."""
    children: dict[int, list[SpanRecord]] = defaultdict(list)
    for record in records:
        children[record.parent_id].append(record)
    return children


def covered_seconds(parent: SpanRecord, kids: Iterable[SpanRecord]) -> float:
    """Length of the part of ``parent``'s interval its ``kids`` cover."""
    end = parent.start + parent.duration
    intervals = sorted(
        (max(kid.start, parent.start), min(kid.start + kid.duration, end))
        for kid in kids
    )
    covered, reach = 0.0, parent.start
    for start, stop in intervals:
        start = max(start, reach)
        if stop > start:
            covered += stop - start
            reach = stop
    return covered


def self_seconds(record: SpanRecord, children: dict[int, list[SpanRecord]]) -> float:
    """A span's duration minus the time its child spans cover."""
    return record.duration - covered_seconds(record, children.get(record.span_id, ()))


def _subtree(root: SpanRecord, children: dict[int, list[SpanRecord]]) -> list[SpanRecord]:
    nodes, frontier = [], [root]
    while frontier:
        node = frontier.pop()
        nodes.append(node)
        frontier.extend(children.get(node.span_id, ()))
    return nodes


# --------------------------------------------------------------------- #
# environment
# --------------------------------------------------------------------- #
def _git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        return "unknown"
    return "unknown"


def environment(seed: int) -> dict[str, Any]:
    """What a result depends on besides the code: cores, versions, commit, seed."""
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(ROOT),
        "seed": seed,
    }


def _peak_rss_mb() -> float:
    """Peak resident set of this interpreter in MiB (pool workers excluded)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------- #
# measuring
# --------------------------------------------------------------------- #
def _units(spec: dict[str, Any], section: str, computed: dict[str, Any]) -> dict[str, Any]:
    """Attach each metric's unit from the spec; the names must match exactly."""
    names = [metric["name"] for metric in spec[section]]
    if sorted(names) != sorted(computed):
        raise RuntimeError(
            f"{section} metrics computed {sorted(computed)} but BENCHMARK.json "
            f"names {sorted(names)}"
        )
    units = {metric["name"]: metric["unit"] for metric in spec[section]}
    return {name: {**computed[name], "unit": units[name]} for name in names}


def measure(
    name: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    trace_out: Path | None = None,
    echo: Any = print,
) -> dict[str, Any]:
    """Run one workload once; return the full result (see module docstring)."""
    workload = WORKLOADS[name]
    spec = load_spec()
    result: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(seed),
    }
    if trace:
        result.update(_measure_traced(workload, spec, seed, seconds, trace_out, echo))
    else:
        result.update(_measure_plain(workload, spec, seed, seconds, echo))
    result["correct"] = result["failed"] == 0
    return result


def _measure_plain(
    workload: Any, spec: dict[str, Any], seed: int, seconds: float, echo: Any
) -> dict[str, Any]:
    setup_times, setup_slowness = [], []
    state = None
    host_slowness()  # the first call runs cold; discard it
    try:
        for _ in range(SETUP_REPS):
            if state is not None:
                workload.close(state)
                state = None
            gc.collect()
            setup_slowness.append(host_slowness())
            gc.collect()
            start = time.perf_counter()
            state = workload.setup(seed)
            warm = workload.warm_up(state)
            setup_times.append(time.perf_counter() - start)
        state.checker = CoverageChecker.from_graph(state.instance.graph)
        loop = workload.timed_loop(state, seconds)
        rss = _peak_rss_mb()
        failed, failures = check_outputs(workload, state, warm + loop.outputs)
        samples = workload.samples(state, loop)
    finally:
        if state is not None:
            workload.close(state)
    setup_calibrated = [
        elapsed / slow for elapsed, slow in zip(setup_times, smoothed(setup_slowness))
    ]
    computed = {
        "setup_s": {**summarize(setup_calibrated, "s"), "raw": summarize(setup_times, "s")},
        "op_p50_ms": {
            **summarize([latency * 1e3 for latency in loop.calibrated], "ms"),
            "raw": summarize([latency * 1e3 for latency in loop.latencies], "ms"),
        },
        "ops_per_s": summarize(loop.throughput, "1/s"),
        "quality_ratio": summarize(samples["quality_ratio"], "ratio"),
        "space_peak_edges": summarize(samples["space_peak_edges"], "edges"),
        "peak_rss_mb": {"value": rss, "samples": 1},
    }
    metrics = _units(spec, "end_to_end", computed)
    host = summarize([REFERENCE_KERNEL_S * 1e3 * slow for slow in loop.slowness], "ms")
    echo(f"[{workload.name}] seed {seed}: {len(loop.latencies)} ops, "
         f"{len(warm) + len(loop.outputs)} checked, {failed} failed, set-up x{SETUP_REPS}")
    echo(_metric_table(metrics))
    echo(
        f"  host kernel {host['value']:.1f} ms (reference {REFERENCE_KERNEL_S * 1e3:g} ms); "
        f"raw op p50 {metrics['op_p50_ms']['raw']['value']:.6g} ms"
    )
    for message in failures[:10]:
        echo(f"  FAILED {message}")
    return {
        "attempted": len(warm) + len(loop.outputs),
        "failed": failed,
        "failures": failures[:50],
        "metrics": metrics,
        "host_kernel_ms": host,
    }


def _measure_traced(
    workload: Any,
    spec: dict[str, Any],
    seed: int,
    seconds: float,
    trace_out: Path | None,
    echo: Any,
) -> dict[str, Any]:
    tracer = Tracer()
    with tracer.span("setup", workload=workload.name):
        state = workload.setup(seed, tracer)
        warm = workload.warm_up(state, tracer)
    try:
        state.checker = CoverageChecker.from_graph(state.instance.graph)
        probes = workload.probe(state, tracer)
        run = workload.traced_loop(state, seconds, tracer)
        warm_failed, warm_failures = check_outputs(workload, state, warm)
    finally:
        workload.close(state)
    run.attempted += len(warm)
    run.failed += warm_failed
    run.failures = warm_failures + run.failures
    records = workload.postprocess(tracer.records())
    layers = _layers(workload, state, records, run, probes)
    trace_path = trace_out or WORK_DIR / f"trace-{workload.name}-{seed}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    write_trace(trace_path, records)
    trace_file = os.path.relpath(trace_path, ROOT)
    metrics = _units(
        spec,
        "per_layer",
        {metric["name"]: {"value": layers[metric["name"]]} for metric in spec["per_layer"]},
    )
    echo(_layer_table(workload, layers, trace_file))
    for message in run.failures[:10]:
        echo(f"  FAILED {message}")
    return {
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures[:50],
        "metrics": metrics,
        "layers": layers,
        "trace_file": trace_file,
    }


def _layers(
    workload: Any,
    state: Any,
    records: list[SpanRecord],
    run: Any,
    probes: dict[str, float],
) -> dict[str, float]:
    """Per-layer metrics of a traced pass (every value is a plain float)."""
    children = children_of(records)
    ops = [record for record in records if record.name in workload.OP_NAMES]
    self_total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for op in ops:
        for node in _subtree(op, children):
            self_total[node.name] += self_seconds(node, children)
            calls[node.name] += 1
    count = max(1, len(ops))
    roots = [record for record in records if record.name == workload.ATTRIBUTION_ROOT]
    attributed = [
        100.0 * covered_seconds(root, children.get(root.span_id, ())) / root.duration
        for root in roots
        if root.duration > 0
    ]
    layers: dict[str, float] = {
        "layer.ingest_s": sum(self_total[name] for name in workload.INGEST) / count,
        "layer.extract_s": sum(self_total[name] for name in workload.EXTRACT) / count,
        "trace.attributed_pct": statistics.median(attributed) if attributed else 0.0,
        "trace.overhead_pct": 100.0
        * (statistics.median(run.traced) / statistics.median(run.plain) - 1.0),
        "sketch.space_per_input": statistics.median(run.space_peaks) / state.num_edges,
        "trace.ops": float(len(ops)),
        "op.wall_s": statistics.median(op.duration for op in ops) if ops else 0.0,
        "op.mean_s": sum(op.duration for op in ops) / count,
    }
    # Set-up phases (datasets.generate, coverage.io.write, serve.warm, ...).
    for setup in (record for record in records if record.name == "setup"):
        for phase in children.get(setup.span_id, ()):
            layers[f"{phase.name}_s"] = phase.duration
    if isinstance(workload, BatchWorkload):
        # solve() wall minus the rebuilt pipeline's decomposed spans; the
        # untraced solves and the rebuilds alternate, so run order pairs them.
        rebuilt = sorted(ops, key=lambda op: op.start)
        overhead = [
            plain - sum(kid.duration for kid in children.get(op.span_id, ()))
            for op, plain in zip(rebuilt, run.plain)
        ]
        if overhead:
            layers["api.overhead_s"] = statistics.median(overhead)
    for name in sorted(self_total):
        layers[f"self_s.{name}"] = self_total[name] / count
        layers[f"calls.{name}"] = calls[name] / count
    for key in sorted({key for detail in run.details for key in detail}):
        layers[key] = statistics.median(
            detail[key] for detail in run.details if key in detail
        )
    for group, latencies in run.latency_groups.items():
        if latencies:
            layers[f"{group}_p50_ms"] = 1e3 * statistics.median(latencies)
            tail_point = tail(latencies)
            if tail_point is not None:
                layers[f"{group}_p{tail_point[0]:g}_ms"] = 1e3 * tail_point[1]
    layers.update(run.extra)
    layers.update(probes)
    return layers


# --------------------------------------------------------------------- #
# printing
# --------------------------------------------------------------------- #
def _metric_table(metrics: dict[str, dict[str, Any]]) -> str:
    lines = [f"  {'metric':<20} {'value':>14} {'unit':<8} {'n':>6} {'q1':>12} {'q3':>12}  tail"]
    for name, metric in metrics.items():
        tail_text = (
            f"p{metric['tail_percentile']:g}={metric['tail']:.4g}"
            if "tail" in metric
            else "-"
        )
        lines.append(
            f"  {name:<20} {metric['value']:>14.6g} {metric['unit']:<8} "
            f"{metric.get('samples', 1):>6} {metric.get('q1', metric['value']):>12.6g} "
            f"{metric.get('q3', metric['value']):>12.6g}  {tail_text}"
        )
    return "\n".join(lines)


def _layer_table(workload: Any, layers: dict[str, float], trace_file: str) -> str:
    mean = layers["op.mean_s"] or 1.0
    lines = [
        f"[{workload.name}] traced pass: {int(layers['trace.ops'])} ops, "
        f"op wall {layers['op.wall_s']:.4f} s (median), "
        f"attributed {layers['trace.attributed_pct']:.1f}%, "
        f"tracing overhead {layers['trace.overhead_pct']:+.1f}%",
        f"  {'span (mean self time per op)':<30} {'calls':>8} {'self s':>10} {'share':>7}",
    ]
    spans = sorted(
        (key[len("self_s."):] for key in layers if key.startswith("self_s.")),
        key=lambda name: -layers[f"self_s.{name}"],
    )
    for name in spans:
        seconds = layers[f"self_s.{name}"]
        lines.append(
            f"  {name:<30} {layers[f'calls.{name}']:>8.1f} {seconds:>10.4f} "
            f"{100.0 * seconds / mean:>6.1f}%"
        )
    lines.append("  layer metrics:")
    for key, value in layers.items():
        if not key.startswith(("self_s.", "calls.")):
            lines.append(f"    {key:<36} {value:.6g}")
    lines.append(f"  trace written to {trace_file}")
    return "\n".join(lines)


def contract_line(result: dict[str, Any]) -> str:
    """The one-line JSON summary: correct, attempted, failed, metrics."""
    return json.dumps(
        {
            "correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": {
                name: {"value": metric["value"], "unit": metric["unit"]}
                for name, metric in result["metrics"].items()
            },
        }
    )
