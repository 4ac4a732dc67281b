"""Command line of the end-to-end benchmark: ``python -m benchmarks.e2e``.

* ``measure --workload W --seed N --seconds S --trace 0|1`` runs one workload
  in this interpreter, prints its tables and, as the last line of standard
  output, one JSON object with ``correct``, ``attempted``, ``failed`` and
  ``metrics`` (the end-to-end metrics untraced, the per-layer ones traced).
* ``run --seed N --out FILE`` runs every workload, one at a time, each in its
  own child interpreter: an untraced run, then a traced run.  It prints every
  end-to-end metric with its unit and sample count and writes all results,
  with the environment, to ``FILE``.
* ``compare A.json [...] -- B.json [...]`` compares two sets of results (see
  :mod:`benchmarks.e2e.compare`).

Run from the repository root; the library is imported from ``src/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[2] / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import argparse  # noqa: E402  (the library path must be set first)
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
from typing import Any, Sequence  # noqa: E402

from benchmarks.e2e import compare, harness  # noqa: E402
from benchmarks.e2e.workloads import WORK_DIR, WORKLOADS  # noqa: E402


def _measure(args: argparse.Namespace) -> int:
    result = harness.measure(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        trace_out=args.trace_out,
    )
    if args.detail is not None:
        args.detail.parent.mkdir(parents=True, exist_ok=True)
        args.detail.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(harness.contract_line(result), flush=True)
    return 0


def _child(name: str, seed: int, seconds: float, trace: int) -> dict[str, Any] | None:
    """One ``measure`` in a fresh interpreter; its full result, or None."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    detail = WORK_DIR / f"detail-{name}-{seed}-{trace}-{os.getpid()}.json"
    command = [
        sys.executable, "-m", "benchmarks.e2e", "measure",
        "--workload", name, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(trace), "--detail", str(detail),
    ]
    completed = subprocess.run(command, cwd=harness.ROOT, check=False)
    if completed.returncode != 0 or not detail.is_file():
        return None
    try:
        return json.loads(detail.read_text(encoding="utf-8"))
    finally:
        detail.unlink()


def _run(args: argparse.Namespace) -> int:
    spec = harness.load_spec()
    seconds = spec["run_seconds"]
    results: dict[str, Any] = {
        "environment": harness.environment(args.seed),
        "seed": args.seed,
        "seconds": seconds,
        "workloads": {},
    }
    for name in (workload["name"] for workload in spec["workloads"]):
        plain = _child(name, args.seed, seconds, 0)
        traced = _child(name, args.seed, seconds, 1)
        if plain is None or traced is None:
            print(f"[{name}] a child run crashed; see its output above")
            results["workloads"][name] = {"correct": False, "crashed": True}
            continue
        results["workloads"][name] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "failures": plain["failures"],
            "metrics": plain["metrics"],
            "traced": {
                key: traced[key]
                for key in ("correct", "attempted", "failed", "failures", "metrics", "layers")
            },
        }
    print(f"\nend-to-end metrics, seed {args.seed}, {seconds} s per run")
    print(f"{'workload':<20} {'metric':<18} {'value':>14} {'unit':<8} {'n':>6}  q1 .. q3")
    for name, entry in results["workloads"].items():
        for metric, value in entry.get("metrics", {}).items():
            print(
                f"{name:<20} {metric:<18} {value['value']:>14.6g} {value['unit']:<8} "
                f"{value.get('samples', 1):>6}  "
                f"{value.get('q1', value['value']):.6g} .. {value.get('q3', value['value']):.6g}"
            )
        traced = entry.get("traced", {})
        print(
            f"{name:<20} correct={entry['correct']} attempted={entry.get('attempted')} "
            f"failed={entry.get('failed')} traced_failed={traced.get('failed')}"
        )
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
        print(f"results written to {args.out}")
    return 0 if all(entry["correct"] for entry in results["workloads"].values()) else 1


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    commands = parser.add_subparsers(dest="command", required=True)
    measure = commands.add_parser("measure", help="run one workload in this interpreter")
    measure.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    measure.add_argument("--seed", type=int, required=True)
    measure.add_argument("--seconds", type=float, required=True)
    measure.add_argument("--trace", type=int, choices=(0, 1), default=0)
    measure.add_argument("--detail", type=Path, help="also write the full result here")
    measure.add_argument("--trace-out", type=Path, help="trace file of a traced run")
    run = commands.add_parser("run", help="every workload, untraced then traced")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", type=Path, help="write all results here")
    commands.add_parser("compare", help="A.json [...] -- B.json [...]")
    args = parser.parse_args(argv)
    if args.command == "measure":
        return _measure(args)
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
