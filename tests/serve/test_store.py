"""Unit tests for the LRU sketch store (repro.serve.store)."""

from __future__ import annotations

import threading

import pytest

from repro.serve import SketchKey, SketchStore


def _key(tag: str) -> SketchKey:
    return SketchKey(fingerprint="deadbeef", family="kcover", config=(tag,))


class TestSketchStore:
    def test_get_or_build_builds_once(self):
        store = SketchStore(capacity=4)
        calls = []

        def build():
            calls.append(1)
            return "sketch"

        entry, hit = store.get_or_build(_key("a"), build)
        assert (entry, hit) == ("sketch", False)
        entry, hit = store.get_or_build(_key("a"), build)
        assert (entry, hit) == ("sketch", True)
        assert len(calls) == 1

    def test_lru_evicts_least_recently_used(self):
        store = SketchStore(capacity=2)
        store.get_or_build(_key("a"), lambda: "A")
        store.get_or_build(_key("b"), lambda: "B")
        # Touch "a" so "b" becomes the eviction victim.
        store.get_or_build(_key("a"), lambda: "never")
        store.get_or_build(_key("c"), lambda: "C")
        assert _key("b") not in store.keys()
        assert set(store.keys()) == {_key("a"), _key("c")}

    def test_explicit_evict_and_clear(self):
        store = SketchStore(capacity=4)
        store.get_or_build(_key("a"), lambda: "A")
        store.get_or_build(_key("b"), lambda: "B")
        assert store.evict(_key("a")) is True
        assert store.evict(_key("a")) is False
        assert store.clear() == 1
        assert len(store) == 0

    def test_stats_counters(self):
        store = SketchStore(capacity=1)
        store.get_or_build(_key("a"), lambda: "A")
        store.get_or_build(_key("a"), lambda: "A")
        store.get_or_build(_key("b"), lambda: "B")  # evicts "a"
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["capacity"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 2
        assert stats["builds"] == 2
        assert stats["evictions"] == 1

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            SketchStore(capacity=0)

    def test_concurrent_gets_build_once(self):
        store = SketchStore(capacity=4)
        builds = []
        barrier = threading.Barrier(8)

        def build():
            builds.append(1)
            return "sketch"

        def worker():
            barrier.wait()
            entry, _ = store.get_or_build(_key("hot"), build)
            assert entry == "sketch"

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # The lock is held across lookup+build, so racing readers serialize
        # behind one build instead of duplicating it.
        assert len(builds) == 1
        assert store.stats()["hits"] == 7

    def test_failing_build_leaves_no_poisoned_entry(self):
        store = SketchStore(capacity=4)

        class BuildFailed(RuntimeError):
            pass

        def failing_build():
            raise BuildFailed("sketch build failed")

        with pytest.raises(BuildFailed, match="sketch build failed"):
            store.get_or_build(_key("a"), failing_build)
        assert len(store) == 0
        stats = store.stats()
        assert (stats["misses"], stats["builds"]) == (1, 0)

        # The lock was released: another thread's lookup completes.
        results = []
        other = threading.Thread(
            target=lambda: results.append(store.get_or_build(_key("b"), lambda: "B"))
        )
        other.start()
        other.join(timeout=10)
        assert not other.is_alive()
        assert results == [("B", False)]

        # The failed key was never admitted, so the next call rebuilds it.
        assert store.get_or_build(_key("a"), lambda: "A") == ("A", False)
        stats = store.stats()
        assert (stats["misses"], stats["builds"], stats["hits"]) == (3, 2, 0)
