"""Named-section wall-clock timing.

:class:`Stopwatch` records how long each stage of a run took:
:class:`~repro.streaming.runner.StreamingRunner` times its ``stream`` and
``solve`` stages with it, and :func:`repro.api.solve` its ``solve`` stage.
Every reading goes through :mod:`repro.obs.clock`, so tests can pin the
durations with a fake clock.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.obs import clock

__all__ = ["Stopwatch"]


class Stopwatch:
    """Named-section stopwatch for multi-stage pipelines.

    >>> sw = Stopwatch()
    >>> with sw.section("build"):
    ...     pass
    >>> with sw.section("solve"):
    ...     pass
    >>> sorted(sw.sections())
    ['build', 'solve']
    """

    def __init__(self) -> None:
        self._elapsed: dict[str, float] = {}

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        """Time the body, adding its seconds to the section's total."""
        self._elapsed.setdefault(name, 0.0)
        start = clock.perf_counter()
        try:
            yield
        finally:
            self._elapsed[name] += clock.perf_counter() - start

    def sections(self) -> list[str]:
        """Names of all sections timed so far."""
        return list(self._elapsed)

    def elapsed(self, name: str) -> float:
        """Total elapsed time of a section (0.0 if the section never ran)."""
        return self._elapsed.get(name, 0.0)

    def as_dict(self) -> dict[str, float]:
        """Mapping from section name to elapsed seconds."""
        return dict(self._elapsed)
