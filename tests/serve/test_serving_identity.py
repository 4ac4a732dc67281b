"""Property tests: served answers are byte-identical to fresh ``solve()``.

The serving layer's whole contract is that the cache is invisible: for every
query shape — k sweeps, varying budgets, forbidden sets, every accepted
``coverage_backend`` value, and after eviction + re-admission — the report a
:class:`~repro.serve.QueryEngine` returns must match a from-scratch
``solve()`` with the engine's stream settings on everything except timings
and the serve markers.
"""

from __future__ import annotations

import pytest

from repro.api import QuerySpec, Session, StreamSpec, solve
from repro.coverage.bipartite import BipartiteGraph
from repro.coverage.bitset import COVERAGE_BACKENDS
from repro.datasets import planted_kcover_instance, planted_setcover_instance
from repro.errors import SpecError
from repro.serve import SERVE_EXTRA_KEYS, QueryEngine, SketchStore
from repro.streaming import DEFAULT_BATCH_SIZE

#: Every accepted coverage_backend value, including the set-based None.
BACKENDS = (None, *COVERAGE_BACKENDS)

SEED = 0
BATCH = 256
KCOVER_OPTIONS = {"scale": 0.1}


def _identity_key(report):
    """Everything the served-vs-fresh contract covers.

    Timings differ by construction; the serve markers are additions the
    engine documents.  ``batch_size`` stays in: every drive records it, and
    the engines below use the fresh runs' size.
    """
    extra = {k: v for k, v in report.extra.items() if k not in SERVE_EXTRA_KEYS}
    return (
        report.algorithm,
        report.arrival_model,
        report.solution,
        report.coverage,
        report.coverage_fraction,
        report.solution_size,
        report.passes,
        report.space_peak,
        report.space_budget,
        report.stream_events,
        extra,
    )


@pytest.fixture(scope="module")
def kcover_instance():
    return planted_kcover_instance(50, 1200, k=6, seed=11)


@pytest.fixture(scope="module")
def setcover_instance():
    return planted_setcover_instance(30, 500, cover_size=6, seed=22)


def _fresh(instance, solver, *, batch_size=BATCH, **kwargs):
    return solve(
        instance.graph,
        solver,
        seed=SEED,
        stream=StreamSpec(order="random", seed=SEED, batch_size=batch_size),
        **kwargs,
    )


class TestKCoverServing:
    def test_every_query_shape_matches_fresh_solve(self, kcover_instance):
        engine = QueryEngine(kcover_instance.graph, seed=SEED, batch_size=BATCH)
        for k in (2, 5, 8):
            for forbidden in ((), (1, 3)):
                for backend in BACKENDS:
                    served = engine.query(
                        QuerySpec(
                            problem="k_cover",
                            k=k,
                            forbidden=forbidden,
                            options=dict(KCOVER_OPTIONS),
                            coverage_backend=backend,
                        )
                    )
                    fresh = _fresh(
                        kcover_instance,
                        "kcover/sketch",
                        problem_kind="k_cover",
                        k=k,
                        options={
                            **KCOVER_OPTIONS,
                            "forbidden": list(forbidden),
                            "coverage_backend": backend,
                        },
                    )
                    assert _identity_key(served) == _identity_key(fresh), (
                        k,
                        forbidden,
                        backend,
                    )
        # The k sweep shares nothing by accident: distinct k derive distinct
        # degree caps here, so each k built its own entry — but backends and
        # forbidden sets were answered from those three builds alone.
        assert engine.store.stats()["builds"] == 3

    def test_no_sketch_graph_on_a_miss_or_a_hit(self, kcover_instance, monkeypatch):
        """The store keeps the build's columns: neither a miss nor a hit
        builds a graph, with or without a backend or forbidden sets."""
        graphs = []
        init = BipartiteGraph.__init__
        monkeypatch.setattr(
            BipartiteGraph,
            "__init__",
            lambda graph, *args, **kwargs: graphs.append(args) or init(graph, *args, **kwargs),
        )
        engine = QueryEngine(kcover_instance.graph, seed=SEED, batch_size=BATCH)
        for misses, k in enumerate((2, 5), start=1):
            engine.query(QuerySpec(problem="k_cover", k=k, options=dict(KCOVER_OPTIONS)))
            assert engine.store.stats()["misses"] == misses
        for backend in BACKENDS:
            for forbidden in ((), (1, 3)):
                served = engine.query(
                    QuerySpec(
                        problem="k_cover",
                        k=5,
                        forbidden=forbidden,
                        coverage_backend=backend,
                        options=dict(KCOVER_OPTIONS),
                    )
                )
                assert served.extra["cache_hit"]
        assert engine.store.stats()["misses"] == 2
        assert graphs == []

    def test_varying_budgets_key_separate_entries(self, kcover_instance):
        engine = QueryEngine(kcover_instance.graph, seed=SEED, batch_size=BATCH)
        first = engine.query(
            QuerySpec(problem="k_cover", k=4, options={"scale": 0.1})
        )
        second = engine.query(
            QuerySpec(problem="k_cover", k=4, options={"scale": 0.2})
        )
        assert engine.store.stats()["builds"] == 2
        for served, scale in ((first, 0.1), (second, 0.2)):
            fresh = _fresh(
                kcover_instance,
                "kcover/sketch",
                problem_kind="k_cover",
                k=4,
                options={"scale": scale},
            )
            assert _identity_key(served) == _identity_key(fresh)

    def test_eviction_and_readmission_are_invisible(self, kcover_instance):
        store = SketchStore(capacity=1)
        engine = QueryEngine(
            kcover_instance.graph, store=store, seed=SEED, batch_size=BATCH
        )
        spec = QuerySpec(problem="k_cover", k=5, options=dict(KCOVER_OPTIONS))
        first = engine.query(spec)
        # Displace the entry, then come back: the rebuild must be invisible.
        engine.query(QuerySpec(problem="k_cover", k=5, options={"scale": 0.3}))
        assert store.stats()["evictions"] >= 1
        readmitted = engine.query(spec)
        assert readmitted.extra["cache_hit"] is False
        assert _identity_key(readmitted) == _identity_key(first)

    def test_explicit_eviction_matches_lru(self, kcover_instance):
        engine = QueryEngine(kcover_instance.graph, seed=SEED, batch_size=BATCH)
        spec = QuerySpec(problem="k_cover", k=3, options=dict(KCOVER_OPTIONS))
        first = engine.query(spec)
        (key,) = engine.store.keys()
        assert engine.store.evict(key) is True
        rebuilt = engine.query(spec)
        assert rebuilt.extra["cache_hit"] is False
        assert _identity_key(rebuilt) == _identity_key(first)

    def test_reserved_options_are_rejected(self, kcover_instance):
        engine = QueryEngine(kcover_instance.graph, seed=SEED)
        with pytest.raises(SpecError):
            engine.query(
                QuerySpec(problem="k_cover", k=3, options={"forbidden": [1]})
            )
        with pytest.raises(SpecError):
            engine.query(
                QuerySpec(
                    problem="k_cover", k=3, options={"coverage_backend": "words"}
                )
            )

    def test_dict_form_queries_are_accepted(self, kcover_instance):
        engine = QueryEngine(kcover_instance.graph, seed=SEED, batch_size=BATCH)
        spec = QuerySpec(problem="k_cover", k=4, options=dict(KCOVER_OPTIONS))
        from_spec = engine.query(spec)
        from_dict = engine.query(spec.to_dict())
        assert _identity_key(from_spec) == _identity_key(from_dict)


class TestSetCoverServing:
    OPTIONS = {"scale": 0.1, "rounds": 2, "max_guesses": 8}

    @pytest.mark.parametrize("forbidden", ((), (0, 2)))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_served_matches_fresh(self, setcover_instance, forbidden, backend):
        engine = QueryEngine(setcover_instance.graph, seed=SEED, batch_size=BATCH)
        served = engine.query(
            QuerySpec(
                problem="set_cover",
                forbidden=forbidden,
                options=dict(self.OPTIONS),
                coverage_backend=backend,
            )
        )
        fresh = _fresh(
            setcover_instance,
            "setcover/sketch",
            problem_kind="set_cover",
            options={
                **self.OPTIONS,
                "forbidden": list(forbidden),
                "coverage_backend": backend,
            },
        )
        assert _identity_key(served) == _identity_key(fresh)

    def test_repeat_queries_hit_the_memoized_run(self, setcover_instance):
        engine = QueryEngine(setcover_instance.graph, seed=SEED, batch_size=BATCH)
        spec = QuerySpec(problem="set_cover", options=dict(self.OPTIONS))
        first = engine.query(spec)
        second = engine.query(spec)
        assert second.extra["cache_hit"] is True
        assert _identity_key(first) == _identity_key(second)
        # Backend variation reuses the same run: selections are
        # backend-invariant (enforced above), so no rebuild happens.
        engine.query(
            QuerySpec(
                problem="set_cover",
                options=dict(self.OPTIONS),
                coverage_backend="words",
            )
        )
        assert engine.store.stats()["builds"] == 1


class TestOutliersServing:
    OPTIONS = {"scale": 0.1, "max_guesses": 8}
    FRACTION = 0.1

    @pytest.mark.parametrize("forbidden", ((), (0,)))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_served_matches_fresh(self, setcover_instance, forbidden, backend):
        engine = QueryEngine(setcover_instance.graph, seed=SEED, batch_size=BATCH)
        served = engine.query(
            QuerySpec(
                problem="set_cover_outliers",
                outlier_fraction=self.FRACTION,
                forbidden=forbidden,
                options=dict(self.OPTIONS),
                coverage_backend=backend,
            )
        )
        fresh = _fresh(
            setcover_instance,
            "outliers/sketch",
            problem_kind="set_cover_outliers",
            outlier_fraction=self.FRACTION,
            options={
                **self.OPTIONS,
                "forbidden": list(forbidden),
                "coverage_backend": backend,
            },
        )
        assert _identity_key(served) == _identity_key(fresh)

    def test_forbidden_variants_share_one_build(self, setcover_instance):
        engine = QueryEngine(setcover_instance.graph, seed=SEED, batch_size=BATCH)
        for forbidden in ((), (0,), (1, 2)):
            engine.query(
                QuerySpec(
                    problem="set_cover_outliers",
                    outlier_fraction=self.FRACTION,
                    forbidden=forbidden,
                    options=dict(self.OPTIONS),
                )
            )
        assert engine.store.stats()["builds"] == 1


class TestEngineSettings:
    @pytest.mark.parametrize("bad", [0, True, 1.5, None])
    def test_batch_size_validated_like_stream_spec(self, kcover_instance, bad):
        with pytest.raises(SpecError, match="only drive mode"):
            QueryEngine(kcover_instance.graph, batch_size=bad)

    def test_default_engine_matches_default_solve(self, kcover_instance):
        engine = QueryEngine(kcover_instance.graph, seed=SEED)
        served = engine.query(
            QuerySpec(problem="k_cover", k=4, options=dict(KCOVER_OPTIONS))
        )
        fresh = solve(
            kcover_instance, "kcover/sketch", k=4, seed=SEED,
            options=dict(KCOVER_OPTIONS),
        )
        assert engine.batch_size == DEFAULT_BATCH_SIZE
        assert _identity_key(served) == _identity_key(fresh)


class TestSessionServing:
    def test_session_query_matches_session_run(self, kcover_instance):
        run_session = Session(kcover_instance, k=5, seed=SEED)
        fresh = run_session.run("kcover/sketch", options=dict(KCOVER_OPTIONS))
        serve_session = Session(kcover_instance, k=5, seed=SEED)
        served = serve_session.query(
            QuerySpec(problem="k_cover", k=5, options=dict(KCOVER_OPTIONS)),
            label="served",
        )
        assert _identity_key(served) == _identity_key(fresh)
        assert len(serve_session.suite) == 1

    def test_shared_store_keeps_datasets_apart(self, kcover_instance):
        other = planted_kcover_instance(50, 1200, k=6, seed=12)
        store = SketchStore()
        first = QueryEngine(
            kcover_instance.graph, store=store, seed=SEED, batch_size=BATCH
        )
        second = QueryEngine(other.graph, store=store, seed=SEED, batch_size=BATCH)
        assert first.fingerprint != second.fingerprint
        spec = QuerySpec(problem="k_cover", k=4, options=dict(KCOVER_OPTIONS))
        first.query(spec)
        report = second.query(spec)
        # Same spec, different dataset: the second engine must not see the
        # first engine's entry.
        assert report.extra["cache_hit"] is False
        assert store.stats()["builds"] == 2
