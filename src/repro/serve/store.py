"""The sketch cache: LRU store of built sketches keyed by content + params.

One :class:`SketchStore` can back any number of
:class:`~repro.serve.engine.QueryEngine` instances — every key carries the
dataset's content fingerprint, so engines over different datasets never
collide.  Entries hold whatever the engine needs to answer queries without
re-ingesting the stream: the built sketch's columns (or the post-stream
algorithm) and the build run's report.

Concurrency model: a single lock is held across lookup *and* build.  Builds
are rare (one stream pass per distinct build configuration) while hits are
cheap, so serialising a cold build against concurrent requests for the same
key is the point — without it, eight clients racing on a cold cache would
each pay the full ingestion.  The entries themselves are read-only after
construction, so hit paths that escape the lock are safe to use from many
threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

from repro.obs import MetricsRegistry
from repro.utils.validation import check_positive_int

__all__ = ["SketchKey", "SketchStore"]


@dataclass(frozen=True)
class SketchKey:
    """Identity of one cached build.

    Attributes
    ----------
    fingerprint:
        Content hash of the input dataset
        (:func:`repro.serve.fingerprint.fingerprint_problem`).
    family:
        The registry name of the solver family the entry was built for
        (``"kcover/sketch"``, ``"setcover/sketch"``, ``"outliers/sketch"``).
    config:
        The build inputs that determine the entry's content, as a flat
        hashable tuple — derived space budgets, seeds, stream order.  What
        goes in (and what is deliberately left out, e.g. the coverage
        backend and the per-query ``k``/``forbidden``) is the engine's
        contract; see :mod:`repro.serve.engine`.
    """

    fingerprint: str
    family: str
    config: tuple[Any, ...]


class SketchStore:
    """Bounded LRU cache of built sketch entries.

    Parameters
    ----------
    capacity:
        Maximum number of entries kept resident.  The least-recently-used
        entry is evicted when a build pushes the store past the bound;
        evicted configurations are rebuilt (deterministically — same key,
        same bytes) on their next request, which the serving property tests
        exercise explicitly.
    """

    def __init__(self, capacity: int = 8) -> None:
        check_positive_int(capacity, "capacity")
        self.capacity = capacity
        self._entries: "OrderedDict[SketchKey, Any]" = OrderedDict()
        self._lock = threading.Lock()
        # Per-store registry, not the process-global one: two stores must
        # never blend their hit rates.  Exporters merge it into a snapshot
        # via MetricsRegistry.snapshot(extra=...).
        self.metrics = MetricsRegistry()
        self._hits = self.metrics.counter(
            "serve.store.hits", help="cache lookups answered by a resident entry"
        )
        self._misses = self.metrics.counter(
            "serve.store.misses", help="cache lookups that required a build"
        )
        self._builds = self.metrics.counter(
            "serve.store.builds", help="sketch builds performed on misses"
        )
        self._evictions = self.metrics.counter(
            "serve.store.evictions", help="entries dropped by LRU, evict() or clear()"
        )
        self._resident = self.metrics.gauge(
            "serve.store.entries", help="entries currently resident"
        )
        self.metrics.gauge(
            "serve.store.capacity", help="configured entry capacity"
        ).set(capacity)

    def get_or_build(
        self, key: SketchKey, build: Callable[[], Any]
    ) -> tuple[Any, bool]:
        """Return ``(entry, cache_hit)``, building and admitting on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits.inc()
                return entry, True
            self._misses.inc()
            entry = build()
            self._builds.inc()
            self._entries[key] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions.inc()
            self._resident.set(len(self._entries))
            return entry, False

    def evict(self, key: SketchKey) -> bool:
        """Drop one entry; returns whether it was present."""
        with self._lock:
            if key in self._entries:
                del self._entries[key]
                self._evictions.inc()
                self._resident.set(len(self._entries))
                return True
            return False

    def clear(self) -> int:
        """Drop every entry; returns how many were evicted."""
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            self._evictions.inc(count)
            self._resident.set(0)
            return count

    def keys(self) -> tuple[SketchKey, ...]:
        """The resident keys, least-recently-used first."""
        with self._lock:
            return tuple(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        """Lifetime counters for reports and the CLI (read off the registry)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self._hits.value,
                "misses": self._misses.value,
                "builds": self._builds.value,
                "evictions": self._evictions.value,
            }
