"""End-to-end benchmark: one harness for the stream, distributed, set-cover
and serving paths, with per-layer attribution from a separate traced pass.

Entry points (run from the repository root)::

    python -m benchmarks.e2e measure --workload kcover-stream --seed 0 --seconds 20 --trace 0
    python -m benchmarks.e2e run --seed 0 --out results.json
    python -m benchmarks.e2e compare A.json -- B.json

See ``benchmarks/e2e/README.md`` for the metrics, the workloads and why each
was chosen.
"""
