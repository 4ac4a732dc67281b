"""The fixed set of executor backends for fanning independent jobs over cores.

The paper's distributed map phase is embarrassingly parallel: every machine
sketches its own shard with a shared hash function and never talks to the
others until the reduce.  Simulating the machines sequentially therefore
leaves real hardware on the table.  An :class:`ExecutorBackend` encapsulates
*how* a list of independent jobs is mapped, and :data:`EXECUTORS` holds the
three the library ships:

* ``"serial"`` — a plain comprehension in the calling thread.  Zero overhead
  and no pickling requirements; the default, and the reference semantics the
  other backends must match result-for-result.
* ``"thread"`` — a :class:`concurrent.futures.ThreadPoolExecutor`.  No
  pickling, shared memory; pays off when the jobs release the GIL (large
  vectorised batches do, pure-Python admission loops do not).
* ``"process"`` — a :class:`concurrent.futures.ProcessPoolExecutor`.  True
  multi-core parallelism; jobs and results must be picklable, so the
  distributed map phase ships *descriptions* of work (a columnar path plus
  row bounds) instead of edge data.
* ``"auto"`` — resolves to ``"process"`` when more than one CPU is usable
  and to ``"serial"`` otherwise.
"""

from __future__ import annotations

import os
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping

from repro.errors import SpecError

__all__ = [
    "EXECUTORS",
    "ExecutorBackend",
    "resolve_executor",
    "executor_choices",
    "usable_cpus",
]


def usable_cpus() -> int:
    """Number of CPUs the current process may actually run on (at least 1).

    Prefers the scheduling affinity mask (what a cgroup/container grants)
    over the raw core count, so ``auto`` selection and default worker counts
    respect CPU quotas.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class ExecutorBackend:
    """One strategy for mapping independent jobs.

    Attributes
    ----------
    name:
        The name reports record (``"serial"``, ``"thread"``, ``"process"``).
    parallel:
        Whether the backend can overlap jobs at all (``False`` for serial;
        used by callers to skip fan-out set-up costs).
    make_pool:
        ``max_workers -> Executor`` factory, or ``None`` for backends that
        run inline (serial).  :class:`~repro.parallel.mapper.ParallelMapper`
        keeps the process pool it makes live for the whole interpreter, one
        per worker count, and makes a thread pool per map call.
    """

    name: str
    parallel: bool
    make_pool: Callable[[int], Executor] | None


#: The executor backends by name (read-only); ``"auto"`` is a selector, not
#: an entry.
EXECUTORS: Mapping[str, ExecutorBackend] = MappingProxyType({
    "process": ExecutorBackend("process", parallel=True, make_pool=ProcessPoolExecutor),
    "serial": ExecutorBackend("serial", parallel=False, make_pool=None),
    "thread": ExecutorBackend("thread", parallel=True, make_pool=ThreadPoolExecutor),
})


def executor_choices() -> tuple[str, ...]:
    """Valid values for user-facing executor options (CLI, specs)."""
    return ("auto", *EXECUTORS)


def resolve_executor(executor: str | ExecutorBackend | None = "auto") -> ExecutorBackend:
    """Resolve a backend name (or pass an instance through).

    ``None`` and ``"serial"`` both resolve to the serial backend; ``"auto"``
    picks the process backend when more than one CPU is usable and the
    serial backend otherwise (a single core cannot overlap CPU-bound map
    jobs, so the fan-out overhead would be pure loss).
    """
    if isinstance(executor, ExecutorBackend):
        return executor
    if executor is None:
        executor = "serial"
    elif executor == "auto":
        executor = "process" if usable_cpus() > 1 else "serial"
    try:
        return EXECUTORS[executor]
    except KeyError:
        raise SpecError(
            f"unknown executor {executor!r}; expected one of {executor_choices()} or None"
        ) from None
