"""Executor runtime for the embarrassingly parallel phases.

The paper's distributed map phase, the ensemble's independent replicas and
the benchmark sweeps all consist of jobs that share nothing until a final
gather.  This subpackage runs them on real cores:

* :mod:`repro.parallel.executors` — the fixed executor table
  (``serial`` / ``thread`` / ``process`` plus ``auto`` selection).
* :mod:`repro.parallel.mapper` — :class:`ParallelMapper`, the deterministic
  fan-out/gather primitive: results always come back in input order, so
  parallel runs stay byte-identical to serial ones.

The job *protocol* lives with its callers: the distributed layer ships
picklable job descriptions (columnar path + row bounds) so no edge data
crosses a process boundary — see :mod:`repro.distributed.worker`.
"""

from repro.parallel.executors import (
    EXECUTORS,
    ExecutorBackend,
    executor_choices,
    resolve_executor,
    usable_cpus,
)
from repro.parallel.mapper import ParallelMapper, as_mapper

__all__ = [
    "EXECUTORS",
    "ExecutorBackend",
    "resolve_executor",
    "executor_choices",
    "usable_cpus",
    "ParallelMapper",
    "as_mapper",
]
