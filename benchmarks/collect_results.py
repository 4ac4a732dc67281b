"""Merge ``benchmarks/results/*.json`` into one trajectory artifact.

Every benchmark writes its measurements to its own JSON file (update time,
offline throughput, distributed throughput, parallel scaling, serving
latency).  CI archives them individually; this script folds them into a
single ``trajectory.json`` + ``trajectory.md`` so one artifact shows the
whole performance surface of a commit — and diffs cleanly between commits.

Usage::

    PYTHONPATH=src python benchmarks/collect_results.py
    PYTHONPATH=src python benchmarks/collect_results.py --results-dir benchmarks/results

The merge is deterministic: artifacts are keyed by file stem in sorted
order, and nothing (no timestamps, no hostnames) is added beyond the files'
own contents, so two runs over the same inputs produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

DEFAULT_RESULTS_DIR = Path(__file__).parent / "results"
#: The merged artifact's own outputs, excluded from the scan so repeated
#: runs do not fold the trajectory into itself.
OUTPUT_STEM = "trajectory"


def summarize_lint_report(payload: object) -> object:
    """Flatten a ``repro lint`` JSON report into trajectory-friendly scalars.

    The raw report nests findings under ``report``; the trajectory wants the
    headline numbers (finding count, files scanned, suppressions, rules) at
    the top level so they diff between commits like every other artifact.
    Anything that does not look like a lint report passes through untouched.
    """
    if not isinstance(payload, dict) or "report" not in payload:
        return payload
    report = payload.get("report")
    if not isinstance(report, dict):
        return payload
    findings = report.get("findings")
    return {
        "version": payload.get("version"),
        "findings": len(findings) if isinstance(findings, list) else None,
        "files_scanned": report.get("files_scanned"),
        "suppressed": report.get("suppressed"),
        "rules": len(report.get("rules", [])),
    }


def summarize_chrome_trace(payload: object) -> object:
    """Compress a Chrome trace-event JSON into trajectory headline numbers.

    The raw trace is one event per span — megabytes on a real run and
    different every time (timestamps).  The trajectory wants the shape:
    how many spans, which lanes (coordinator + workers), which span names
    appeared, and the wall extent.  Anything without a ``traceEvents``
    list passes through untouched.
    """
    if not isinstance(payload, dict):
        return payload
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return payload
    spans = [e for e in events if isinstance(e, dict) and e.get("ph") == "X"]
    lanes = sorted(
        e.get("args", {}).get("name", "")
        for e in events
        if isinstance(e, dict) and e.get("ph") == "M"
        and e.get("name") == "thread_name"
    )
    extent = max((e.get("ts", 0) + e.get("dur", 0) for e in spans), default=0)
    return {
        "span_events": len(spans),
        "lanes": lanes,
        "span_names": sorted({e.get("name") for e in spans}),
        "extent_micros": extent,
    }


def summarize_metrics_snapshot(payload: object) -> object:
    """Flatten a ``repro.obs`` metrics snapshot into headline scalars.

    A snapshot maps instrument name to its typed state; the trajectory
    keeps counters and gauge levels as-is and reduces histograms to
    count/mean (full bucket vectors stay in the archived raw artifact).
    Anything that does not look like a snapshot passes through untouched.
    """
    if not isinstance(payload, dict) or not payload:
        return payload
    kinds = {"counter", "gauge", "histogram"}
    if not all(
        isinstance(state, dict) and state.get("kind") in kinds
        for state in payload.values()
    ):
        return payload
    summary: dict[str, object] = {}
    for name in sorted(payload):
        state = payload[name]
        if state["kind"] == "counter":
            summary[name] = state.get("value", 0)
        elif state["kind"] == "gauge":
            summary[name] = state.get("value", 0.0)
            summary[f"{name}.max"] = state.get("max", 0.0)
        else:
            count = state.get("count", 0)
            summary[f"{name}.count"] = count
            summary[f"{name}.mean"] = (
                state.get("sum", 0.0) / count if count else 0.0
            )
    return summary


def collect_results(results_dir: Path) -> dict[str, object]:
    """Parse every results JSON (except the trajectory itself), keyed by stem."""
    artifacts: dict[str, object] = {}
    skipped: list[str] = []
    for path in sorted(results_dir.glob("*.json")):
        if path.stem == OUTPUT_STEM:
            continue
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            skipped.append(f"{path.name}: {error}")
            continue
        if path.stem == "lint-report":
            payload = summarize_lint_report(payload)
        payload = summarize_chrome_trace(payload)
        payload = summarize_metrics_snapshot(payload)
        artifacts[path.stem] = payload
    return {
        "artifacts": artifacts,
        "artifact_names": sorted(artifacts),
        "skipped": skipped,
    }


def _scalar_summary(data: object, limit: int = 8) -> list[str]:
    """The top-level scalar fields of one artifact, for the Markdown digest."""
    if not isinstance(data, dict):
        return []
    lines = []
    for key in sorted(data):
        value = data[key]
        if not isinstance(value, (bool, int, float, str)):
            continue
        if isinstance(value, float):
            value = round(value, 6)
        lines.append(f"  - `{key}`: {value}")
        if len(lines) >= limit:
            break
    return lines


def render_markdown(merged: dict[str, object]) -> str:
    """A human-readable digest of the merged trajectory."""
    lines = ["### Benchmark trajectory", ""]
    artifacts = merged["artifacts"]
    if not artifacts:
        lines.append("No benchmark results found — run the `bench_*.py` suites first.")
    for name in merged["artifact_names"]:
        lines.append(f"- **{name}**")
        lines.extend(_scalar_summary(artifacts[name]))
    for note in merged["skipped"]:
        lines.append(f"- skipped (unparseable): {note}")
    lines.append("")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results-dir",
        type=Path,
        default=DEFAULT_RESULTS_DIR,
        help="directory holding the per-benchmark *.json files",
    )
    args = parser.parse_args(argv)
    results_dir = args.results_dir
    if not results_dir.is_dir():
        parser.error(f"results directory not found: {results_dir}")
    merged = collect_results(results_dir)
    json_path = results_dir / f"{OUTPUT_STEM}.json"
    md_path = results_dir / f"{OUTPUT_STEM}.md"
    json_path.write_text(json.dumps(merged, indent=2) + "\n", encoding="utf-8")
    md_path.write_text(render_markdown(merged), encoding="utf-8")
    print(f"merged {len(merged['artifact_names'])} artifact(s) -> {json_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
