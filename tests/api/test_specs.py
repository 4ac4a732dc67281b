"""Unit tests for the serializable run specs (repro.api.specs)."""

from __future__ import annotations

import json

import pytest

from repro.api import ProblemSpec, QuerySpec, RunSpec, SolverSpec, StreamSpec
from repro.errors import SpecError


class TestProblemSpec:
    def test_round_trip(self):
        spec = ProblemSpec(
            problem="k_cover",
            k=5,
            dataset="planted_kcover",
            dataset_args={"num_sets": 30, "num_elements": 300, "k": 5, "seed": 3},
        )
        data = spec.to_dict()
        json.dumps(data)  # JSON-serializable end to end
        assert ProblemSpec.from_dict(data) == spec

    def test_rejects_unknown_problem(self):
        with pytest.raises(SpecError):
            ProblemSpec(problem="vertex_cover")

    def test_rejects_bad_k(self):
        with pytest.raises(SpecError):
            ProblemSpec(k=0)
        with pytest.raises(SpecError):
            ProblemSpec(k=True)

    def test_rejects_bad_outlier_fraction(self):
        with pytest.raises(SpecError):
            ProblemSpec(problem="set_cover_outliers", outlier_fraction=1.5)

    def test_outliers_requires_fraction(self):
        with pytest.raises(SpecError):
            ProblemSpec(problem="set_cover_outliers")

    @pytest.mark.parametrize(
        "data, field",
        [
            ({"problem": "k_cover", "budget": 3}, "budget"),
            # A spec saved while the distributed reduce was a knob fails
            # loudly instead of being silently reinterpreted.
            ({"problem": "k_cover", "reduce": "barrier"}, "reduce"),
        ],
    )
    def test_rejects_unknown_keys(self, data, field):
        with pytest.raises(SpecError, match=field):
            ProblemSpec.from_dict(data)

    def test_rejects_non_serializable_dataset_args(self):
        with pytest.raises(SpecError):
            ProblemSpec(dataset="zipf", dataset_args={"rng": object()})

    def test_for_instance(self, planted_kcover):
        spec = ProblemSpec.for_instance(planted_kcover)
        assert spec.problem == "k_cover"
        assert spec.k == planted_kcover.k

    def test_build_instance_from_registry(self):
        spec = ProblemSpec(
            problem="k_cover",
            k=3,
            dataset="planted_kcover",
            dataset_args={"num_sets": 20, "num_elements": 200, "k": 3, "seed": 1},
        )
        instance = spec.build_instance()
        assert instance.n == 20
        assert instance.k == 3

    def test_build_instance_without_dataset_fails(self):
        with pytest.raises(SpecError):
            ProblemSpec().build_instance()


class TestSolverSpec:
    def test_round_trip(self):
        spec = SolverSpec("kcover/sketch", {"epsilon": 0.2, "scale": 0.1})
        assert SolverSpec.from_dict(spec.to_dict()) == spec

    def test_rejects_empty_name(self):
        with pytest.raises(SpecError):
            SolverSpec("")

    def test_rejects_non_mapping_options(self):
        with pytest.raises(SpecError):
            SolverSpec("kcover/sketch", options=[1, 2])

    def test_rejects_non_serializable_option(self):
        with pytest.raises(SpecError):
            SolverSpec("kcover/sketch", {"hash_fn": lambda x: x})


class TestStreamSpec:
    def test_round_trip(self):
        spec = StreamSpec(order="set_grouped", seed=9, arrival="edge")
        assert StreamSpec.from_dict(spec.to_dict()) == spec

    def test_rejects_unknown_order(self):
        with pytest.raises(SpecError):
            StreamSpec(order="sorted")

    def test_rejects_bad_arrival(self):
        with pytest.raises(SpecError):
            StreamSpec(arrival="batch")

    def test_set_order_degrades_to_random(self):
        assert StreamSpec(order="adversarial_tail").set_order == "random"
        assert StreamSpec(order="given").set_order == "given"

    def test_batch_size_round_trip(self):
        spec = StreamSpec(order="random", seed=1, batch_size=256)
        assert spec.to_dict()["batch_size"] == 256
        assert StreamSpec.from_dict(spec.to_dict()) == spec
        assert StreamSpec().batch_size is None

    def test_rejects_bad_batch_size(self):
        for bad in (0, -4, True, 2.5):
            with pytest.raises(SpecError, match="batch_size"):
                StreamSpec(batch_size=bad)


class TestRunSpec:
    def _spec(self) -> RunSpec:
        return RunSpec(
            problem=ProblemSpec(problem="k_cover", k=4),
            solver=SolverSpec("kcover/sketch", {"scale": 0.1}),
            stream=StreamSpec(order="random", seed=2),
            max_passes=3,
            repetitions=2,
            label="run",
        )

    def test_round_trip(self):
        spec = self._spec()
        data = spec.to_dict()
        json.dumps(data)
        assert RunSpec.from_dict(data) == spec

    def test_json_round_trip(self):
        spec = self._spec()
        assert RunSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_rejects_invalid_nested_field(self):
        data = self._spec().to_dict()
        data["problem"]["problem"] = "magic"
        with pytest.raises(SpecError):
            RunSpec.from_dict(data)

    def test_rejects_unknown_keys(self):
        data = self._spec().to_dict()
        data["budget"] = 10
        with pytest.raises(SpecError):
            RunSpec.from_dict(data)

    def test_rejects_bad_repetitions(self):
        with pytest.raises(SpecError):
            RunSpec(
                problem=ProblemSpec(), solver=SolverSpec("kcover/sketch"), repetitions=0
            )

    def test_rejects_bad_max_passes(self):
        with pytest.raises(SpecError):
            RunSpec(
                problem=ProblemSpec(), solver=SolverSpec("kcover/sketch"), max_passes=-1
            )

    def test_requires_spec_types(self):
        with pytest.raises(SpecError):
            RunSpec(problem={"problem": "k_cover"}, solver=SolverSpec("kcover/sketch"))


class TestQuerySpec:
    def test_round_trip(self):
        spec = QuerySpec(
            problem="k_cover",
            k=5,
            forbidden=(3, 1),
            options={"scale": 0.1},
            coverage_backend="words",
        )
        data = spec.to_dict()
        json.dumps(data)
        assert QuerySpec.from_dict(data) == spec

    def test_forbidden_normalized_sorted_deduped(self):
        spec = QuerySpec(problem="k_cover", k=2, forbidden=[5, 1, 5, 3])
        assert spec.forbidden == (1, 3, 5)

    def test_kcover_requires_k(self):
        with pytest.raises(SpecError, match="k"):
            QuerySpec(problem="k_cover")
        with pytest.raises(SpecError):
            QuerySpec(problem="k_cover", k=0)

    def test_outliers_requires_fraction(self):
        with pytest.raises(SpecError, match="outlier_fraction"):
            QuerySpec(problem="set_cover_outliers")
        with pytest.raises(SpecError):
            QuerySpec(problem="set_cover_outliers", outlier_fraction=1.5)

    def test_rejects_unknown_problem(self):
        with pytest.raises(SpecError):
            QuerySpec(problem="vertex_cover")

    def test_rejects_unknown_backend(self):
        with pytest.raises(SpecError, match="coverage_backend"):
            QuerySpec(problem="set_cover", coverage_backend="trits")

    def test_rejects_unknown_keys(self):
        with pytest.raises(SpecError):
            QuerySpec.from_dict({"problem": "set_cover", "budget": 3})

    def test_rejects_non_serializable_options(self):
        with pytest.raises(SpecError):
            QuerySpec(problem="set_cover", options={"fn": lambda x: x})


class TestCoverageBackendField:
    def test_round_trip(self):
        spec = ProblemSpec(problem="k_cover", k=3, coverage_backend="words")
        data = spec.to_dict()
        assert data["coverage_backend"] == "words"
        assert ProblemSpec.from_dict(data) == spec

    def test_defaults_to_none(self):
        assert ProblemSpec(problem="set_cover").coverage_backend is None
        assert ProblemSpec.from_dict({"problem": "set_cover"}).coverage_backend is None

    def test_accepts_every_valid_choice(self):
        from repro.coverage.bitset import COVERAGE_BACKENDS

        assert COVERAGE_BACKENDS == ("auto", "words")
        for choice in (None, *COVERAGE_BACKENDS):
            assert ProblemSpec(problem="k_cover", k=1, coverage_backend=choice)
            assert QuerySpec(problem="k_cover", k=1, coverage_backend=choice)

    def test_rejects_unknown_backend(self):
        with pytest.raises(SpecError, match="coverage_backend"):
            ProblemSpec(problem="k_cover", k=1, coverage_backend="trits")

    # The byte layout is gone: "bytes" is now an unknown backend, and the
    # error lists the values that remain.
    def test_problem_spec_from_dict_rejects_bytes(self):
        with pytest.raises(SpecError, match=r"'bytes'.*\('auto', 'words'\)"):
            ProblemSpec.from_dict({"problem": "k_cover", "k": 2, "coverage_backend": "bytes"})

    def test_query_spec_from_dict_rejects_bytes(self):
        with pytest.raises(SpecError, match=r"'bytes'.*\('auto', 'words'\)"):
            QuerySpec.from_dict({"problem": "k_cover", "k": 2, "coverage_backend": "bytes"})

    def test_run_spec_from_dict_rejects_bytes(self):
        data = RunSpec(
            problem=ProblemSpec(problem="k_cover", k=2, coverage_backend="words"),
            solver=SolverSpec("offline/greedy"),
        ).to_dict()
        data["problem"]["coverage_backend"] = "bytes"
        with pytest.raises(SpecError, match=r"'bytes'.*\('auto', 'words'\)"):
            RunSpec.from_dict(data)


class TestExecutorFields:
    def test_round_trip(self):
        spec = ProblemSpec(problem="k_cover", k=3, executor="process", map_workers=4)
        data = spec.to_dict()
        assert data["executor"] == "process"
        assert data["map_workers"] == 4
        assert ProblemSpec.from_dict(data) == spec

    def test_defaults_to_none(self):
        spec = ProblemSpec(problem="set_cover")
        assert spec.executor is None and spec.map_workers is None

    def test_accepts_every_registered_choice(self):
        from repro.parallel import executor_choices

        for choice in executor_choices():
            assert ProblemSpec(problem="k_cover", k=1, executor=choice)

    def test_rejects_unknown_executor(self):
        with pytest.raises(SpecError, match="executor"):
            ProblemSpec(problem="k_cover", k=1, executor="gpu-cluster")

    @pytest.mark.parametrize("bad", [0, -2, True, 1.5, "four"])
    def test_rejects_bad_map_workers(self, bad):
        with pytest.raises(SpecError, match="map_workers"):
            ProblemSpec(problem="k_cover", k=1, map_workers=bad)
