"""Every frozen spec survives ``to_dict`` → JSON → ``from_dict`` unchanged.

Specs and reports are persisted, diffed and replayed: a field that
``to_dict`` drops vanishes from archived runs, and one that ``from_dict``
ignores makes old reports unreadable.  The check is at runtime over every
frozen dataclass in ``repro`` that offers either half of the round trip.
Each has a sample below that sets every field away from its default, so a
field lost in either direction reads back as the default and the
comparison fails.  A new spec without a sample fails
:func:`test_every_spec_has_a_sample`.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import pkgutil

import pytest

import repro
from repro.api.specs import ProblemSpec, QuerySpec, RunSpec, SolverSpec, StreamSpec
from repro.coverage.bitset import COVERAGE_BACKENDS
from repro.lint.findings import Finding, LintReport
from repro.lint.rules import RuleMeta

_FINDING = Finding(path="src/a.py", line=3, col=4, rule="no-raw-rng", message="seeded")

#: One fully populated instance per spec class: no field holds its default.
SAMPLES = {
    ProblemSpec: ProblemSpec(
        problem="set_cover_outliers",
        k=4,
        outlier_fraction=0.1,
        dataset="planted-kcover",
        dataset_args={"n": 10},
    ),
    SolverSpec: SolverSpec("kcover/sketch", {"scale": 0.5}),
    StreamSpec: StreamSpec(order="given", seed=3, arrival="edge", batch_size=17),
    QuerySpec: QuerySpec(
        problem="set_cover_outliers",
        k=3,
        outlier_fraction=0.2,
        forbidden=(1, 4),
        options={"scale": 0.5},
        coverage_backend=COVERAGE_BACKENDS[0],
    ),
    RunSpec: RunSpec(
        problem=ProblemSpec(k=2),
        solver=SolverSpec("offline/greedy"),
        stream=StreamSpec(seed=9),
        max_passes=3,
        repetitions=2,
        label="seeded",
    ),
    RuleMeta: RuleMeta(
        name="seeded-rule",
        summary="a summary",
        rationale="a rationale",
        example_bad="bad()",
        example_good="good()",
    ),
    Finding: _FINDING,
    LintReport: LintReport(
        findings=(_FINDING,), files_scanned=5, suppressed=1, rules=("no-raw-rng",)
    ),
}


def _is_spec(cls: type) -> bool:
    """A frozen dataclass that defines ``to_dict`` or ``from_dict`` itself."""
    return (
        dataclasses.is_dataclass(cls)
        and cls.__dataclass_params__.frozen
        and ("to_dict" in vars(cls) or "from_dict" in vars(cls))
    )


def discover_specs() -> set[type]:
    """Every spec class defined in a ``repro`` module."""
    found = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == info.name and _is_spec(cls):
                found.add(cls)
    return found


def round_trip_problems(sample: object) -> list[str]:
    """Why ``sample`` does not survive the round trip (empty when it does)."""
    cls = type(sample)
    if not all(callable(getattr(cls, name, None)) for name in ("to_dict", "from_dict")):
        return [f"{cls.__name__} needs both to_dict and from_dict"]
    problems = []
    for field in dataclasses.fields(cls):
        default = (
            field.default_factory()
            if field.default_factory is not dataclasses.MISSING
            else field.default
        )
        if getattr(sample, field.name) == default:
            problems.append(f"the {cls.__name__} sample leaves {field.name!r} at its default")
    data = sample.to_dict()
    missing = {field.name for field in dataclasses.fields(cls)} - set(data)
    if missing:
        problems.append(f"{cls.__name__}.to_dict drops {sorted(missing)}")
    if cls.from_dict(json.loads(json.dumps(data))) != sample:
        problems.append(f"{cls.__name__}.from_dict does not rebuild the sample")
    return problems


def test_every_spec_has_a_sample():
    specs = discover_specs()
    assert {RunSpec, RuleMeta, LintReport} <= specs
    assert specs == set(SAMPLES)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
def test_spec_round_trips(cls):
    assert round_trip_problems(SAMPLES[cls]) == []


def _seeded(to_dict, from_dict):
    @dataclasses.dataclass(frozen=True)
    class Seeded:
        a: int = 0
        b: int = 0

    Seeded.to_dict = to_dict
    Seeded.from_dict = classmethod(from_dict)
    return Seeded


def test_a_field_dropped_by_to_dict_is_caught():
    seeded = _seeded(lambda self: {"a": self.a}, lambda cls, data: cls(**data))
    assert round_trip_problems(seeded(a=1, b=2)) == [
        "Seeded.to_dict drops ['b']",
        "Seeded.from_dict does not rebuild the sample",
    ]


def test_a_field_ignored_by_from_dict_is_caught_only_off_its_default():
    seeded = _seeded(lambda self: {"a": self.a, "b": self.b}, lambda cls, data: cls(a=data["a"]))
    assert round_trip_problems(seeded(a=1, b=2)) == [
        "Seeded.from_dict does not rebuild the sample"
    ]
    assert round_trip_problems(seeded(a=1)) == ["the Seeded sample leaves 'b' at its default"]
