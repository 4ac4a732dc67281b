"""Compare two sets of benchmark results, metric by metric.

``python -m benchmarks.e2e compare A.json [A2.json ...] -- B.json [B2.json ...]``

Side A is the parent, side B the change.  Each file is a ``run`` result (all
workloads) or a ``measure --detail`` result (one workload).  For every
workload and end-to-end metric the comparison prints each side's median and
quartiles, the relative delta and the metric's bound from ``BENCHMARK.json``,
and a verdict:

* ``unresolved`` -- either side's quartile spread (``q3 - q1`` over its
  median) is wider than the bound, unless every B run reads better than every
  A run (then ``better``);
* ``worse`` -- B's median is worse than A's by more than the bound;
* ``better`` -- B's median is better than A's by more than A's own
  run-to-run spread (with one file on a side, that spread is unknown, so by
  more than the bound);
* ``same`` -- otherwise.

With several files on a side its quartiles are taken over the files' values;
with one file, over the samples inside it, so a metric measured once per run
has no spread.  A workload that crashed in any file is skipped with a
warning; a difference in environment or run length between the files is
warned about too.  Exits 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from benchmarks.e2e.harness import load_spec, quartiles

__all__ = ["Side", "side", "verdict", "compare", "main"]

#: Environment keys that make two sides' numbers incomparable when they differ.
ENVIRONMENT_KEYS = ("nproc", "usable_cpus", "python", "numpy", "platform")


@dataclass(frozen=True)
class Side:
    """One side's view of one metric on one workload."""

    median: float
    q1: float
    q3: float
    values: tuple[float, ...]

    @property
    def spread(self) -> float:
        """Quartile distance relative to the median."""
        return (self.q3 - self.q1) / (abs(self.median) or 1.0)


def side(entries: Sequence[dict[str, Any]]) -> Side:
    """Summarise one metric's entries from one side's result files."""
    values = tuple(float(entry["value"]) for entry in entries)
    if len(values) >= 2:
        q1, median, q3 = quartiles(values)
        return Side(median, q1, q3, values)
    entry = entries[0]
    median = values[0]
    return Side(median, float(entry.get("q1", median)), float(entry.get("q3", median)), values)


def verdict(a: Side, b: Side, better: str, bound: float) -> str:
    """``better``, ``worse``, ``same`` or ``unresolved`` for B against A."""
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (b.median - a.median) / (abs(a.median) or 1.0)
    runs = len(a.values) >= 2 and len(b.values) >= 2
    if max(a.spread, b.spread) > bound:
        beats = all(sign * (bv - av) < 0 for bv in b.values for av in a.values)
        return "better" if runs and beats else "unresolved"
    if worsening > bound:
        return "worse"
    if -worsening > (a.spread if runs else max(a.spread, bound)):
        return "better"
    return "same"


def _load(path: Path) -> dict[str, Any]:
    """A result file, normalised to ``{"environment", "workloads": {...}}``."""
    data = json.loads(path.read_text(encoding="utf-8"))
    if "workload" in data:
        return {
            "environment": data["environment"],
            "seconds": data["seconds"],
            "workloads": {data["workload"]: data},
        }
    return data


def _environment_warnings(a: list[dict[str, Any]], b: list[dict[str, Any]]) -> list[str]:
    warnings = []
    for key in ENVIRONMENT_KEYS:
        seen_a = {str(result["environment"].get(key)) for result in a}
        seen_b = {str(result["environment"].get(key)) for result in b}
        if seen_a != seen_b:
            warnings.append(
                f"warning: environments differ in {key}: A {sorted(seen_a)} vs B {sorted(seen_b)}"
            )
    seconds = {str(result.get("seconds")) for result in a + b}
    if len(seconds) > 1:
        warnings.append(f"warning: run lengths differ: {sorted(seconds)} seconds")
    return warnings


def compare(
    a_results: list[dict[str, Any]], b_results: list[dict[str, Any]], spec: dict[str, Any]
) -> tuple[list[dict[str, Any]], list[str]]:
    """Rows (one per workload x end-to-end metric) and warnings."""
    warnings = _environment_warnings(a_results, b_results)
    results = a_results + b_results
    # A crashed workload is recorded without metrics (see ``run``).
    measured = [
        {workload for workload, entry in r["workloads"].items() if "metrics" in entry}
        for r in results
    ]
    both = set.intersection(*measured)
    for missing in sorted(set.union(*(set(r["workloads"]) for r in results)) - both):
        warnings.append(
            f"warning: workload {missing} crashed or is missing in some file; skipped"
        )
    rows = []
    for workload in sorted(both):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = side([r["workloads"][workload]["metrics"][name] for r in a_results])
            b = side([r["workloads"][workload]["metrics"][name] for r in b_results])
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "a": a,
                    "b": b,
                    "delta": (b.median - a.median) / (abs(a.median) or 1.0),
                    "bound": metric["bound"],
                    "verdict": verdict(a, b, metric["better"], metric["bound"]),
                }
            )
    return rows, warnings


def _format(value: Side) -> str:
    return f"{value.median:.5g} [{value.q1:.5g}, {value.q3:.5g}]"


def main(argv: Sequence[str]) -> int:
    """Entry point of the ``compare`` subcommand; returns the exit code."""
    args = list(argv)
    if "--" not in args or args.index("--") == 0 or args[-1] == "--":
        print("usage: python -m benchmarks.e2e compare A.json [A2.json ...] -- B.json [B2.json ...]")
        return 2
    split = args.index("--")
    a_results = [_load(Path(path)) for path in args[:split]]
    b_results = [_load(Path(path)) for path in args[split + 1 :]]
    for result in a_results + b_results:
        print(f"# {result['environment'].get('git_sha', 'unknown')[:12]} "
              f"seed {result['environment'].get('seed')}")
    rows, warnings = compare(a_results, b_results, load_spec())
    for warning in warnings:
        print(warning)
    print(
        f"{'workload':<20} {'metric':<18} {'A median [q1, q3]':<34} "
        f"{'B median [q1, q3]':<34} {'delta':>8} {'bound':>6}  verdict"
    )
    for row in rows:
        print(
            f"{row['workload']:<20} {row['metric']:<18} {_format(row['a']):<34} "
            f"{_format(row['b']):<34} {100 * row['delta']:>+7.2f}% "
            f"{100 * row['bound']:>5.1f}%  {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0
