"""The per-event reference drive, kept in the tests instead of the runner.

The runner only feeds columnar batches.  :class:`PerEvent` wraps an
algorithm and forwards every attribute except ``process_batch``, so
:func:`repro.streaming.process_event_batch` unrolls each batch into
``process()`` calls: the paper's one-arrival-at-a-time semantics, driven
through the same runner.  :func:`drive` is ``StreamingRunner.run`` with
``batch_size=None`` meaning that reference, and :func:`per_event_twin`
registers such a wrapper around a registry solver, so ``solve()`` itself can
produce the reference run.  :func:`add_edges` is the same reference for the
sketches fed directly, which take batches through ``process_batch``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.api import get_solver, register_solver, unregister_solver
from repro.streaming import StreamingReport, StreamingRunner


class PerEvent:
    """Forwards everything but ``process_batch`` to the wrapped algorithm."""

    def __init__(self, algorithm: Any) -> None:
        self._algorithm = algorithm

    def __getattr__(self, name: str) -> Any:
        if name == "process_batch":
            raise AttributeError(name)
        return getattr(self._algorithm, name)


def drive(
    runner: StreamingRunner,
    algorithm: Any,
    stream: Any,
    *,
    batch_size: int | None = None,
    **kwargs: Any,
) -> StreamingReport:
    """``runner.run``, where ``batch_size=None`` drives ``PerEvent(algorithm)``."""
    if batch_size is None:
        return runner.run(PerEvent(algorithm), stream, **kwargs)
    return runner.run(algorithm, stream, batch_size=batch_size, **kwargs)


@contextmanager
def per_event_twin(name: str) -> Iterator[str]:
    """Register ``test/per-event`` as ``name`` wrapped in :class:`PerEvent`.

    Yields the twin's registry name, for ``solve()``; unregistered on exit.
    """
    info = get_solver(name)
    register_solver(
        "test/per-event", kind=info.kind, problems=info.problems, arrival=info.arrival
    )(lambda ctx, **options: PerEvent(info.builder(ctx, **options)))
    try:
        yield "test/per-event"
    finally:
        unregister_solver("test/per-event")


def add_edges(target: Any, edges: Any) -> None:
    """Feed ``(set_id, element)`` pairs to ``target.add_edge`` one at a time:
    the per-edge reference for a sketch builder, an ensemble or an oracle."""
    for set_id, element in edges:
        target.add_edge(set_id, element)
