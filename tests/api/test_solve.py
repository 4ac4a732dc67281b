"""Integration tests: repro.solve() runs every registered solver family."""

from __future__ import annotations

import pytest

from repro.api import (
    ProblemSpec,
    RunSpec,
    Session,
    SolverSpec,
    StreamSpec,
    register_solver,
    run,
    solve,
    unregister_solver,
)
from repro.datasets import planted_kcover_instance, planted_setcover_instance
from repro.errors import SpaceBudgetExceeded, SpecError
from repro.streaming import SetStream, SpaceMeter, StreamingReport

KCOVER_SOLVERS = [
    ("kcover/sketch", {"scale": 0.2}),
    ("kcover/ensemble", {"scale": 0.2, "replicas": 2}),
    ("kcover/saha-getoor", {}),
    ("kcover/sieve", {"epsilon": 0.1}),
    ("kcover/mcgregor-vu", {"epsilon": 0.3}),
    ("kcover/distributed", {"scale": 0.3, "num_machines": 3}),
    ("offline/greedy", {}),
    ("offline/local-search", {}),
]

SETCOVER_SOLVERS = [
    ("setcover/sketch", {"epsilon": 0.5, "rounds": 2, "max_guesses": 12}),
    ("setcover/demaine", {"rounds": 2}),
    ("setcover/harpeled", {"passes": 3}),
    ("offline/greedy", {"allow_partial": False}),
]

OUTLIER_SOLVERS = [
    ("outliers/sketch", {"epsilon": 0.5, "max_guesses": 12}),
    ("outliers/emek-rosen", {"passes": 3}),
    ("offline/greedy", {}),
]


@pytest.fixture(scope="module")
def kcover_instance():
    return planted_kcover_instance(40, 800, k=4, planted_coverage=0.9, seed=13)


@pytest.fixture(scope="module")
def setcover_instance():
    return planted_setcover_instance(30, 400, cover_size=6, seed=17)


class TestEverySolverFamily:
    @pytest.mark.parametrize("solver,options", KCOVER_SOLVERS)
    def test_kcover_family(self, kcover_instance, solver, options):
        report = solve(kcover_instance, solver, options=options, seed=13)
        assert isinstance(report, StreamingReport)
        assert report.coverage > 0
        assert report.solution_size <= kcover_instance.k
        assert 0.0 < report.coverage_fraction <= 1.0

    @pytest.mark.parametrize("solver,options", SETCOVER_SOLVERS)
    def test_setcover_family(self, setcover_instance, solver, options):
        report = solve(setcover_instance, solver, options=options, seed=17)
        assert report.solution_size >= 1
        assert report.coverage_fraction > 0.5

    @pytest.mark.parametrize("solver,options", OUTLIER_SOLVERS)
    def test_outliers_family(self, setcover_instance, solver, options):
        report = solve(
            setcover_instance,
            solver,
            problem_kind="set_cover_outliers",
            outlier_fraction=0.1,
            options=options,
            seed=17,
        )
        assert report.solution_size >= 1
        assert report.coverage_fraction >= 0.5

    def test_offline_report_shape(self, kcover_instance):
        report = solve(kcover_instance, "offline/greedy")
        assert report.arrival_model == "offline"
        assert report.passes == 0
        assert report.space_peak == kcover_instance.num_edges
        assert "solve" in report.timings

    def test_distributed_report_shape(self, kcover_instance):
        report = solve(
            kcover_instance, "kcover/distributed", options={"num_machines": 3, "scale": 0.3}
        )
        assert report.arrival_model == "distributed"
        assert report.passes == 2  # two MapReduce rounds
        assert report.extra["num_machines"] == 3
        assert report.extra["communication_edges"] > 0

    def test_solver_spec_and_options_merge(self, kcover_instance):
        spec = SolverSpec("kcover/sketch", {"scale": 0.5})
        report = solve(kcover_instance, spec, options={"scale": 0.2}, seed=13)
        direct = solve(kcover_instance, "kcover/sketch", options={"scale": 0.2}, seed=13)
        assert report.solution == direct.solution
        assert report.space_peak == direct.space_peak


class TestSolveOnGraphAndSpecs:
    def test_bare_graph(self, tiny_graph):
        report = solve(tiny_graph, "kcover/sketch", k=2, options={"scale": 1.0}, seed=0)
        assert report.solution_size <= 2

    def test_problem_spec_with_dataset(self):
        spec = ProblemSpec(
            problem="k_cover",
            k=3,
            dataset="planted_kcover",
            dataset_args={"num_sets": 20, "num_elements": 200, "k": 3, "seed": 5},
        )
        report = solve(spec, "kcover/sketch", options={"scale": 0.5}, seed=5)
        assert report.solution_size <= 3

    def test_run_spec_repetitions_are_seeded(self):
        spec = RunSpec(
            problem=ProblemSpec(
                problem="k_cover",
                k=3,
                dataset="planted_kcover",
                dataset_args={"num_sets": 20, "num_elements": 200, "k": 3, "seed": 5},
            ),
            solver=SolverSpec("kcover/sketch", {"scale": 0.5}),
            stream=StreamSpec(order="random", seed=1),
            repetitions=2,
        )
        reports = run(spec)
        assert len(reports) == 2
        assert all(r.coverage > 0 for r in reports)

    def test_run_spec_round_trips_through_dict(self):
        spec = RunSpec(
            problem=ProblemSpec(
                problem="k_cover",
                k=3,
                dataset="planted_kcover",
                dataset_args={"num_sets": 20, "num_elements": 200, "k": 3, "seed": 5},
            ),
            solver=SolverSpec("kcover/sketch", {"scale": 0.5}),
        )
        replayed = run(RunSpec.from_dict(spec.to_dict()))[0]
        original = run(spec)[0]
        assert replayed.solution == original.solution

    def test_rejects_unknown_problem_type(self):
        with pytest.raises(SpecError):
            solve({"edges": []}, "kcover/sketch")

    def test_bare_graph_kcover_requires_k(self, tiny_graph):
        with pytest.raises(SpecError, match="requires k"):
            solve(tiny_graph, "kcover/sketch", problem_kind="k_cover")

    def test_rejects_unrecognized_stream_type(self, tiny_graph):
        with pytest.raises(SpecError, match="StreamSpec"):
            solve(tiny_graph, "kcover/sketch", k=2, stream={"order": "given"})

    def test_run_spec_label_recorded_on_reports(self):
        spec = RunSpec(
            problem=ProblemSpec(
                problem="k_cover",
                k=3,
                dataset="planted_kcover",
                dataset_args={"num_sets": 20, "num_elements": 200, "k": 3, "seed": 5},
            ),
            solver=SolverSpec("kcover/sketch", {"scale": 0.5}),
            label="my-run",
        )
        report = run(spec)[0]
        assert report.extra["label"] == "my-run"


class TestErrorPaths:
    def test_problem_solver_mismatch(self, kcover_instance):
        with pytest.raises(SpecError, match="setcover/sketch"):
            solve(kcover_instance, "setcover/sketch")

    def test_arrival_model_mismatch_surfaces_check_model(self, kcover_instance):
        # Forcing a set stream onto the edge-arrival sketch must trip the
        # runner's _check_model, not silently feed wrong events.
        with pytest.raises(TypeError, match="edge arrivals"):
            solve(
                kcover_instance,
                "kcover/sketch",
                options={"scale": 0.2},
                stream=StreamSpec(arrival="set"),
            )

    def test_explicit_stream_object_mismatch(self, kcover_instance):
        stream = SetStream.from_graph(kcover_instance.graph)
        with pytest.raises(TypeError):
            solve(kcover_instance, "kcover/sketch", options={"scale": 0.2}, stream=stream)

    def test_offline_solver_rejects_max_passes(self, kcover_instance):
        with pytest.raises(SpecError, match="max_passes"):
            solve(kcover_instance, "offline/greedy", max_passes=1)

    def test_offline_solver_rejects_batch_size(self, kcover_instance):
        with pytest.raises(SpecError, match="batch_size"):
            solve(kcover_instance, "offline/greedy", batch_size=64)

    def test_offline_solver_ignores_spec_batch_size(self, kcover_instance):
        # Mixed comparisons share one StreamSpec; offline solvers ignore it.
        report = solve(
            kcover_instance, "offline/greedy", stream=StreamSpec(seed=3, batch_size=64)
        )
        assert report.arrival_model == "offline"

    def test_batch_size_recorded_and_equivalent(self, kcover_instance):
        scalar = solve(kcover_instance, "kcover/sketch", stream=StreamSpec(seed=3))
        batched = solve(
            kcover_instance, "kcover/sketch", stream=StreamSpec(seed=3, batch_size=128)
        )
        assert batched.extra["batch_size"] == 128
        assert batched.solution == scalar.solution
        assert batched.space_peak == scalar.space_peak

    def test_explicit_batch_size_overrides_spec(self, kcover_instance):
        report = solve(
            kcover_instance,
            "kcover/sketch",
            stream=StreamSpec(seed=3, batch_size=8),
            batch_size=256,
        )
        assert report.extra["batch_size"] == 256

    def test_non_streaming_solver_rejects_stream_object(self, kcover_instance):
        stream = SetStream.from_graph(kcover_instance.graph)
        with pytest.raises(SpecError, match="stream object"):
            solve(kcover_instance, "offline/greedy", stream=stream)

    def test_non_streaming_solver_tolerates_shared_stream_spec(self, kcover_instance):
        # Mixed comparisons share one StreamSpec; offline solvers ignore it.
        report = solve(kcover_instance, "offline/greedy", stream=StreamSpec(seed=3))
        assert report.arrival_model == "offline"

    def test_outlier_solver_requires_fraction(self, setcover_instance):
        with pytest.raises(SpecError, match="outlier_fraction"):
            solve(setcover_instance, "outliers/sketch", problem_kind="set_cover_outliers")

    def test_space_budget_exceeded_propagates(self, kcover_instance):
        class HoardingAlgorithm:
            def __init__(self) -> None:
                self.name = "hoarder"
                self.arrival_model = "edge"
                self.space = SpaceMeter(unit="edges", budget=3)

            def start_pass(self, pass_index):
                pass

            def process(self, event):
                self.space.charge(1)

            def finish_pass(self, pass_index):
                pass

            def wants_another_pass(self):
                return False

            def result(self):
                return []

        @register_solver(
            "test/hoarder",
            kind="streaming",
            problems=("k_cover",),
            arrival="edge",
            summary="test-only: overruns its space budget",
        )
        def _build(ctx, **options):
            return HoardingAlgorithm()

        try:
            with pytest.raises(SpaceBudgetExceeded):
                solve(kcover_instance, "test/hoarder")
        finally:
            unregister_solver("test/hoarder")


class TestSession:
    def test_compare_aggregates_rows(self, kcover_instance):
        session = Session(kcover_instance, instance_name="planted", seed=13)
        reports = session.compare(
            [
                ("sketch", "kcover/sketch", {"scale": 0.2}),
                ("sieve", "kcover/sieve"),
                "offline/greedy",
            ]
        )
        assert len(reports) == 3
        assert len(session.suite) == 3
        assert session.suite.algorithms() == ["sketch", "sieve", "offline-greedy"]
        row = session.suite.rows[0].as_dict()
        assert row["approx_ratio"] > 0.5
        assert row["input_edges"] == kcover_instance.num_edges
        table = session.to_table(["algorithm", "coverage", "approx_ratio"])
        assert "sketch" in table.to_grid()

    def test_reference_value_defaults_to_planted(self, kcover_instance):
        session = Session(kcover_instance)
        assert session.reference_value == kcover_instance.planted_value

    def test_no_kcover_reference_on_setcover_sessions(self, setcover_instance):
        # A k-cover Opt_k reference is meaningless for set cover: rows must
        # not carry an approx_ratio unless the caller supplies a reference.
        session = Session(setcover_instance, seed=17)
        session.run("setcover/sketch", options={"rounds": 2, "max_guesses": 12})
        assert session.reference_value is None
        assert "approx_ratio" not in session.suite.rows[0].as_dict()

    def test_aggregate(self, kcover_instance):
        session = Session(kcover_instance, seed=13)
        session.run("kcover/sketch", options={"scale": 0.2})
        session.run("kcover/sketch", options={"scale": 0.2}, seed=14)
        stats = session.aggregate("coverage")
        assert "bateni-sketch-kcover" in stats

    def test_compare_rejects_malformed_entry(self, kcover_instance):
        session = Session(kcover_instance)
        with pytest.raises(SpecError):
            session.compare([("label", "kcover/sketch", {}, "extra")])

    def test_session_on_bare_graph(self, tiny_graph):
        session = Session(tiny_graph, k=2, problem_kind="k_cover")
        report = session.run("kcover/sketch", options={"scale": 1.0})
        assert report.solution_size <= 2
        assert session.suite.rows[0].as_dict()["n"] == tiny_graph.num_sets


class TestCoverageBackendPlumbing:
    """coverage_backend reaches the offline kernels through every entry."""

    def test_offline_greedy_on_kernel_matches_default(self, kcover_instance):
        default = solve(kcover_instance, "offline/greedy", seed=13)
        for backend in ("auto", "words"):
            fast = solve(
                kcover_instance, "offline/greedy", seed=13, coverage_backend=backend
            )
            assert fast.solution == default.solution
            assert fast.coverage == default.coverage
            assert fast.extra["coverage_backend"] == "words"
        assert "coverage_backend" not in default.extra

    def test_offline_local_search_accepts_backend(self, kcover_instance):
        report = solve(
            kcover_instance,
            "offline/local-search",
            seed=13,
            options={"start_from_greedy": True},
            coverage_backend="words",
        )
        assert report.extra["coverage_backend"] == "words"
        assert report.coverage > 0

    def test_problem_spec_carries_backend(self):
        spec = ProblemSpec(
            problem="k_cover",
            k=4,
            dataset="planted_kcover",
            dataset_args={"num_sets": 25, "num_elements": 300, "k": 4, "seed": 3},
            coverage_backend="words",
        )
        report = solve(spec, "offline/greedy", seed=3)
        assert report.extra["coverage_backend"] == "words"
        # Round-trips through RunSpec execution too.
        reports = run(RunSpec(problem=spec, solver=SolverSpec("offline/greedy")))
        assert reports[0].extra["coverage_backend"] == "words"

    def test_explicit_backend_overrides_spec(self):
        spec = ProblemSpec(
            problem="k_cover",
            k=4,
            dataset="planted_kcover",
            dataset_args={"num_sets": 25, "num_elements": 300, "k": 4, "seed": 3},
        )
        assert "coverage_backend" not in solve(spec, "offline/greedy", seed=3).extra
        report = solve(spec, "offline/greedy", seed=3, coverage_backend="auto")
        assert report.extra["coverage_backend"] == "words"

    @pytest.mark.parametrize("backend", ["nibbles", "bytes"])
    def test_spec_rejects_unknown_backend(self, backend):
        with pytest.raises(SpecError, match="coverage_backend"):
            ProblemSpec(problem="k_cover", k=4, coverage_backend=backend)

    def test_session_rejects_unknown_backend(self, kcover_instance):
        session = Session(kcover_instance, seed=13, coverage_backend="bytes")
        with pytest.raises(SpecError, match="'auto', 'words'"):
            session.run("offline/greedy")

    def test_streaming_solvers_ignore_backend(self, kcover_instance):
        plain = solve(kcover_instance, "kcover/sketch", seed=13, options={"scale": 0.2})
        kernelled = solve(
            kcover_instance,
            "kcover/sketch",
            seed=13,
            options={"scale": 0.2},
            coverage_backend="words",
        )
        assert kernelled.solution == plain.solution

    def test_session_backend_matches_default_reference(self, kcover_instance):
        fast = Session(kcover_instance, seed=13, coverage_backend="words")
        slow = Session(kcover_instance, seed=13)
        assert fast.reference_value == slow.reference_value
        report = fast.run("offline/greedy")
        assert report.extra["coverage_backend"] == "words"

    def test_session_packs_the_kernel_once(self, kcover_instance, monkeypatch):
        import repro.coverage.bitset as bitset_module

        calls = []
        original_init = bitset_module.BitsetCoverage.__init__

        def counting_init(self, graph):
            calls.append(graph)
            original_init(self, graph)

        monkeypatch.setattr(bitset_module.BitsetCoverage, "__init__", counting_init)
        session = Session(kcover_instance, seed=13, coverage_backend="words")
        session.run("offline/greedy")
        session.run("offline/local-search")
        session.run("offline/greedy", seed=14)
        assert len(calls) == 1  # one packing serves every offline run
        # A streaming run packs its own *sketch* (a different graph) once;
        # the session's problem-graph kernel is still not re-packed.
        session.run("kcover/sketch", options={"scale": 0.2})
        assert len(calls) == 2
        session.run("offline/greedy", seed=15)
        assert len(calls) == 2


class TestColumnarProblems:
    """solve() accepts columnar workloads and keeps them column-backed."""

    DIST_OPTIONS = {
        "num_machines": 3,
        "edge_budget": 300,
        "degree_cap": 15,
        "strategy": "row_range",
    }

    @pytest.fixture(scope="class")
    def columnar_dir(self, kcover_instance, tmp_path_factory):
        from repro.coverage.io import write_columnar

        path = tmp_path_factory.mktemp("workload") / "edges.cols"
        write_columnar(
            kcover_instance.graph.edges(), path, num_sets=kcover_instance.n
        )
        return path

    def test_distributed_columnar_matches_graph_run(self, kcover_instance, columnar_dir):
        """The column-backed map phase reports exactly the in-memory run."""
        from_graph = solve(
            kcover_instance.graph, "kcover/distributed", k=4, seed=13,
            options=self.DIST_OPTIONS,
        )
        for problem in (columnar_dir, str(columnar_dir)):
            from_columns = solve(
                problem, "kcover/distributed", k=4, seed=13, options=self.DIST_OPTIONS
            )
            assert from_columns.solution == from_graph.solution
            assert from_columns.coverage == from_graph.coverage
            assert (
                from_columns.extra["merged_threshold"]
                == from_graph.extra["merged_threshold"]
            )

    def test_distributed_report_carries_load_balance(self, kcover_instance):
        report = solve(
            kcover_instance, "kcover/distributed", seed=13, options=self.DIST_OPTIONS
        )
        assert (
            report.extra["machine_load_min"]
            <= report.extra["machine_load_mean"]
            <= report.extra["machine_load_max"]
        )
        assert 0.0 < report.extra["merged_threshold"] <= 1.0

    def test_distributed_coverage_backend_via_spec_kwarg(self, kcover_instance):
        plain = solve(
            kcover_instance, "kcover/distributed", seed=13, options=self.DIST_OPTIONS
        )
        kernelled = solve(
            kcover_instance, "kcover/distributed", seed=13,
            options=self.DIST_OPTIONS, coverage_backend="words",
        )
        assert kernelled.solution == plain.solution
        assert kernelled.coverage == plain.coverage

    def test_streaming_solver_on_columnar_problem(self, kcover_instance, columnar_dir):
        from_graph = solve(
            kcover_instance.graph, "kcover/sketch", k=4, seed=13,
            options={"scale": 0.2},
        )
        from_columns = solve(
            columnar_dir, "kcover/sketch", k=4, seed=13, options={"scale": 0.2}
        )
        assert from_columns.solution == from_graph.solution

    def test_non_columnar_path_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            solve(tmp_path / "missing", "kcover/sketch", k=2)


class TestStreamingKernelPostProcessing:
    """coverage_backend reaches the streaming family's offline phase."""

    @pytest.fixture(scope="class")
    def kcover_instance(self):
        from repro.datasets import planted_kcover_instance

        return planted_kcover_instance(40, 900, k=5, planted_coverage=0.85, seed=31)

    @pytest.mark.parametrize(
        "solver,kwargs",
        [
            ("kcover/sketch", {"options": {"scale": 0.3}}),
            ("kcover/ensemble", {"options": {"scale": 0.3, "replicas": 3}}),
            ("setcover/sketch", {"problem_kind": "set_cover",
                                 "options": {"rounds": 2, "max_guesses": 6},
                                 "max_passes": 40}),
            ("outliers/sketch", {"problem_kind": "set_cover_outliers",
                                 "outlier_fraction": 0.1,
                                 "options": {"max_guesses": 6}}),
        ],
    )
    def test_kernel_backed_result_matches_set_based(self, kcover_instance, solver, kwargs):
        from repro.api import StreamSpec

        stream = StreamSpec(order="random", seed=7)
        plain = solve(kcover_instance, solver, seed=7, stream=stream, **kwargs)
        kernelled = solve(
            kcover_instance, solver, seed=7, stream=stream,
            coverage_backend="words", **kwargs,
        )
        assert kernelled.solution == plain.solution
        assert kernelled.coverage == plain.coverage
        assert kernelled.space_peak == plain.space_peak

    def test_streaming_kcover_records_backend(self, kcover_instance):
        from repro.core.kcover import StreamingKCover

        algo = StreamingKCover(
            kcover_instance.n, kcover_instance.m, k=5, coverage_backend="words"
        )
        assert algo.describe()["coverage_backend"] == "words"

    def test_explicit_solver_bypasses_the_kernel(self, kcover_instance):
        from repro.core.kcover import StreamingKCover
        from repro.streaming.events import EdgeArrival

        calls = []
        algo = StreamingKCover(
            kcover_instance.n, kcover_instance.m, k=5,
            coverage_backend="words",
            solver=lambda graph, k: calls.append(k) or [0, 1],
        )
        for set_id, element in kcover_instance.graph.edges():
            algo.process(EdgeArrival(set_id, element))
        assert algo.result() == [0, 1]
        assert calls == [5]
