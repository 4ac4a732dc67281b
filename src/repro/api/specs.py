"""Frozen, serializable run specifications for the :mod:`repro.api` facade.

A run is fully described by four small frozen dataclasses:

* :class:`ProblemSpec` — which coverage problem is posed (``k_cover``,
  ``set_cover`` or ``set_cover_outliers``) with its parameters, optionally
  bound to a named dataset from the :mod:`repro.datasets` registry so the
  spec alone can materialize the instance.
* :class:`SolverSpec` — a solver registry name plus constructor options.
* :class:`StreamSpec` — how the input is streamed (order, seed, arrival,
  batch size).
* :class:`RunSpec` — the bundle of the three plus run-level knobs.

Every spec validates its fields on construction (raising
:class:`repro.errors.SpecError`) and round-trips through ``to_dict`` /
``from_dict`` with only JSON-serializable values, so runs can be persisted,
diffed and replayed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Mapping

from repro.coverage.bitset import check_coverage_backend
from repro.errors import SpecError
from repro.streaming.batches import DEFAULT_BATCH_SIZE, check_batch_size
from repro.streaming.stream import STREAM_ORDERS
from repro.utils.validation import check_optional_open_fraction, check_optional_positive_int

__all__ = [
    "PROBLEM_KINDS",
    "ProblemSpec",
    "SolverSpec",
    "StreamSpec",
    "RunSpec",
    "QuerySpec",
]

#: The three coverage problems the library solves (ProblemKind values).
PROBLEM_KINDS = ("k_cover", "set_cover", "set_cover_outliers")

_ARRIVALS = ("edge", "set")


def _check_json_value(value: Any, where: str) -> None:
    """Recursively verify ``value`` uses only JSON-serializable primitives."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return
    if isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _check_json_value(item, f"{where}[{index}]")
        return
    if isinstance(value, Mapping):
        for key, item in value.items():
            if not isinstance(key, str):
                raise SpecError(f"{where} has a non-string key {key!r}")
            _check_json_value(item, f"{where}.{key}")
        return
    raise SpecError(
        f"{where} holds a non-serializable value of type {type(value).__name__}: {value!r}"
    )


def _check_options_dict(options: Any, where: str) -> dict[str, Any]:
    if options is None:
        return {}
    if not isinstance(options, Mapping):
        raise SpecError(f"{where} must be a mapping, got {type(options).__name__}")
    _check_json_value(dict(options), where)
    return dict(options)


def _reject_unknown_keys(cls: type, data: Mapping[str, Any]) -> None:
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise SpecError(
            f"{cls.__name__}.from_dict got unknown field(s) {unknown}; "
            f"expected a subset of {sorted(known)}"
        )


def _require_mapping(data: Any, cls: type) -> Mapping[str, Any]:
    if not isinstance(data, Mapping):
        raise SpecError(
            f"{cls.__name__}.from_dict expects a mapping, got {type(data).__name__}"
        )
    return data


@dataclass(frozen=True)
class ProblemSpec:
    """Which coverage problem is posed, with its parameters.

    ``dataset`` / ``dataset_args`` optionally name a generator from the
    :mod:`repro.datasets` registry; :meth:`build_instance` then materializes
    the :class:`repro.coverage.instance.CoverageInstance` from the spec
    alone, making a :class:`RunSpec` self-contained.
    """

    problem: str = "k_cover"
    k: int | None = None
    outlier_fraction: float | None = None
    dataset: str | None = None
    dataset_args: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.problem not in PROBLEM_KINDS:
            raise SpecError(
                f"unknown problem {self.problem!r}; expected one of {PROBLEM_KINDS}"
            )
        check_optional_positive_int(self.k, "k")
        check_optional_open_fraction(self.outlier_fraction, "outlier_fraction")
        if self.problem == "set_cover_outliers" and self.outlier_fraction is None:
            raise SpecError("set_cover_outliers requires outlier_fraction")
        if self.dataset is not None and not isinstance(self.dataset, str):
            raise SpecError(f"dataset must be a string or None, got {self.dataset!r}")
        object.__setattr__(
            self, "dataset_args", _check_options_dict(self.dataset_args, "dataset_args")
        )

    @classmethod
    def for_instance(cls, instance: Any) -> "ProblemSpec":
        """Derive the spec posed by a :class:`CoverageInstance`."""
        kind = getattr(instance.kind, "value", str(instance.kind))
        outlier = instance.outlier_fraction if kind == "set_cover_outliers" else None
        return cls(problem=kind, k=instance.k, outlier_fraction=outlier)

    def build_instance(self) -> Any:
        """Materialize the instance from the dataset registry."""
        if self.dataset is None:
            raise SpecError("ProblemSpec has no dataset bound; cannot build an instance")
        from repro.datasets import get_dataset

        return get_dataset(self.dataset).build(**self.dataset_args)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-serializable)."""
        return {
            "problem": self.problem,
            "k": self.k,
            "outlier_fraction": self.outlier_fraction,
            "dataset": self.dataset,
            "dataset_args": dict(self.dataset_args),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ProblemSpec":
        """Inverse of :meth:`to_dict`; unknown fields raise :class:`SpecError`."""
        data = _require_mapping(data, cls)
        _reject_unknown_keys(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class SolverSpec:
    """A solver registry name plus constructor options."""

    name: str
    options: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise SpecError(f"solver name must be a non-empty string, got {self.name!r}")
        object.__setattr__(self, "options", _check_options_dict(self.options, "options"))

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-serializable)."""
        return {"name": self.name, "options": dict(self.options)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SolverSpec":
        """Inverse of :meth:`to_dict`; unknown fields raise :class:`SpecError`."""
        data = _require_mapping(data, cls)
        _reject_unknown_keys(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class StreamSpec:
    """How the input graph is streamed to the solver.

    ``arrival`` normally stays ``None`` (the solver's native arrival model);
    setting it forces an ``edge`` or ``set`` stream, which surfaces the
    runner's model check for mismatched solvers.  ``order`` must be one of
    :data:`repro.streaming.stream.STREAM_ORDERS`; set-arrival streams only
    distinguish ``given`` from shuffled orders, so anything else degrades to
    ``random`` for them.  ``batch_size`` is the number of events per
    columnar :class:`~repro.streaming.batches.EventBatch` the runner feeds;
    reports are identical at every size.  Batches are the only drive mode, so
    it must be a positive integer (``None`` raises :class:`SpecError`).
    """

    order: str = "random"
    seed: int = 0
    arrival: str | None = None
    batch_size: int = DEFAULT_BATCH_SIZE

    def __post_init__(self) -> None:
        if self.order not in STREAM_ORDERS:
            raise SpecError(
                f"unknown stream order {self.order!r}; expected one of {STREAM_ORDERS}"
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise SpecError(f"seed must be an integer, got {self.seed!r}")
        if self.arrival is not None and self.arrival not in _ARRIVALS:
            raise SpecError(
                f"arrival must be one of {_ARRIVALS} or None, got {self.arrival!r}"
            )
        check_batch_size(self.batch_size)

    @property
    def set_order(self) -> str:
        """The order to use for a set-arrival stream."""
        return self.order if self.order in ("given", "random") else "random"

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-serializable)."""
        return {
            "order": self.order,
            "seed": self.seed,
            "arrival": self.arrival,
            "batch_size": self.batch_size,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StreamSpec":
        """Inverse of :meth:`to_dict`; unknown fields raise :class:`SpecError`."""
        data = _require_mapping(data, cls)
        _reject_unknown_keys(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class QuerySpec:
    """One serving-layer query against an already-built sketch.

    Where :class:`ProblemSpec` describes what to *build*, a ``QuerySpec``
    describes what to *ask*: the problem kind, the per-query parameters that
    vary between requests (``k``, ``outlier_fraction``, ``forbidden`` set
    ids, solver ``options``) and the kernel backend the answer should be
    evaluated on.  Everything that determines the sketch's *content* —
    dataset, seed, stream order, space budgets — lives on the
    :class:`repro.serve.QueryEngine` instead, so distinct queries share one
    cached sketch whenever their derived build inputs coincide.

    ``forbidden`` is normalized to a sorted tuple of distinct ids, making
    equal queries compare (and serialize) equal.
    """

    problem: str = "k_cover"
    k: int | None = None
    outlier_fraction: float | None = None
    forbidden: tuple[int, ...] = ()
    options: dict[str, Any] = field(default_factory=dict)
    coverage_backend: str | None = None

    def __post_init__(self) -> None:
        if self.problem not in PROBLEM_KINDS:
            raise SpecError(
                f"unknown problem {self.problem!r}; expected one of {PROBLEM_KINDS}"
            )
        check_optional_positive_int(self.k, "k")
        if self.problem == "k_cover" and self.k is None:
            raise SpecError("k_cover queries require k")
        check_optional_open_fraction(self.outlier_fraction, "outlier_fraction")
        if self.problem == "set_cover_outliers" and self.outlier_fraction is None:
            raise SpecError("set_cover_outliers queries require outlier_fraction")
        forbidden = self.forbidden
        if isinstance(forbidden, (str, bytes)) or not isinstance(
            forbidden, (list, tuple)
        ):
            raise SpecError(
                f"forbidden must be a sequence of set ids, got {forbidden!r}"
            )
        ids = []
        for item in forbidden:
            if isinstance(item, bool) or not isinstance(item, int) or item < 0:
                raise SpecError(
                    f"forbidden must hold non-negative integers, got {item!r}"
                )
            ids.append(int(item))
        object.__setattr__(self, "forbidden", tuple(sorted(set(ids))))
        object.__setattr__(self, "options", _check_options_dict(self.options, "options"))
        check_coverage_backend(self.coverage_backend)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-serializable)."""
        return {
            "problem": self.problem,
            "k": self.k,
            "outlier_fraction": self.outlier_fraction,
            "forbidden": list(self.forbidden),
            "options": dict(self.options),
            "coverage_backend": self.coverage_backend,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QuerySpec":
        """Inverse of :meth:`to_dict`; unknown fields raise :class:`SpecError`."""
        data = _require_mapping(data, cls)
        _reject_unknown_keys(cls, data)
        payload = dict(data)
        if "forbidden" in payload and payload["forbidden"] is not None:
            payload["forbidden"] = tuple(payload["forbidden"])
        else:
            payload.pop("forbidden", None)
        return cls(**payload)


@dataclass(frozen=True)
class RunSpec:
    """A fully-described run: problem + solver + stream + run-level knobs."""

    problem: ProblemSpec
    solver: SolverSpec
    stream: StreamSpec = field(default_factory=StreamSpec)
    max_passes: int | None = None
    repetitions: int = 1
    label: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.problem, ProblemSpec):
            raise SpecError("problem must be a ProblemSpec")
        if not isinstance(self.solver, SolverSpec):
            raise SpecError("solver must be a SolverSpec")
        if not isinstance(self.stream, StreamSpec):
            raise SpecError("stream must be a StreamSpec")
        check_optional_positive_int(self.max_passes, "max_passes")
        if (
            isinstance(self.repetitions, bool)
            or not isinstance(self.repetitions, int)
            or self.repetitions < 1
        ):
            raise SpecError(
                f"repetitions must be a positive integer, got {self.repetitions!r}"
            )
        if self.label is not None and not isinstance(self.label, str):
            raise SpecError(f"label must be a string or None, got {self.label!r}")

    def to_dict(self) -> dict[str, Any]:
        """Nested plain-dict form (JSON-serializable)."""
        return {
            "problem": self.problem.to_dict(),
            "solver": self.solver.to_dict(),
            "stream": self.stream.to_dict(),
            "max_passes": self.max_passes,
            "repetitions": self.repetitions,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        """Inverse of :meth:`to_dict`; unknown fields raise :class:`SpecError`."""
        data = _require_mapping(data, cls)
        _reject_unknown_keys(cls, data)
        payload = dict(data)
        if "problem" not in payload or "solver" not in payload:
            raise SpecError("RunSpec.from_dict requires 'problem' and 'solver'")
        payload["problem"] = ProblemSpec.from_dict(payload["problem"])
        payload["solver"] = SolverSpec.from_dict(payload["solver"])
        if "stream" in payload and payload["stream"] is not None:
            payload["stream"] = StreamSpec.from_dict(payload["stream"])
        else:
            payload.pop("stream", None)
        return cls(**payload)
