"""Cached-sketch query serving: build once, answer many queries.

The paper's central promise is that one pass over the stream yields a small
sketch ``H_{<=n}`` that can answer *many* coverage queries.  This package
turns that promise into a serving layer:

* :func:`~repro.serve.fingerprint.fingerprint_problem` — a content hash of
  the input, so cache entries are keyed by *what the data is*, not by which
  Python object happens to hold it.
* :class:`~repro.serve.store.SketchStore` — an LRU cache of built sketches
  (with their packed coverage kernels), keyed by fingerprint + build
  parameters.
* :class:`~repro.serve.engine.QueryEngine` — answers
  :class:`~repro.api.specs.QuerySpec` queries (k-cover, set cover,
  outliers; varying ``k``, budgets and forbidden sets) against the cached
  sketch with zero re-ingestion, returning the same
  :class:`~repro.streaming.runner.StreamingReport` that ``solve()``
  produces (byte-identical solutions, property-tested).
* :func:`~repro.serve.driver.drive_queries` — a concurrent request driver
  on :mod:`repro.parallel` (thread backend, shared read-only packed
  arrays) with per-query latency capture and p50/p99/QPS aggregation.
"""

from repro.serve.driver import LoadReport, QueryJob, drive_queries, run_query_job
from repro.serve.engine import SERVABLE_PROBLEMS, SERVE_EXTRA_KEYS, QueryEngine
from repro.serve.fingerprint import (
    fingerprint_columns,
    fingerprint_graph,
    fingerprint_problem,
)
from repro.serve.store import SketchKey, SketchStore

__all__ = [
    "SERVABLE_PROBLEMS",
    "SERVE_EXTRA_KEYS",
    "QueryEngine",
    "SketchKey",
    "SketchStore",
    "QueryJob",
    "LoadReport",
    "drive_queries",
    "run_query_job",
    "fingerprint_problem",
    "fingerprint_graph",
    "fingerprint_columns",
]
