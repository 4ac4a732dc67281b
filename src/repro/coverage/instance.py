"""Problem instances: a set system plus problem parameters and ground truth.

An instance bundles the input graph with the kind of coverage problem posed
on it (k-cover, set cover, set cover with outliers), the relevant parameters
and — when the generator planted one — a known optimum that experiments can
use as ground truth instead of re-solving the instance exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.coverage.bipartite import BipartiteGraph
from repro.errors import InvalidInstanceError
from repro.utils.validation import check_fraction, check_positive_int

__all__ = ["ProblemKind", "CoverageInstance"]


class ProblemKind(str, enum.Enum):
    """Which of the three coverage problems an instance poses."""

    K_COVER = "k_cover"
    SET_COVER = "set_cover"
    SET_COVER_OUTLIERS = "set_cover_outliers"


@dataclass
class CoverageInstance:
    """A coverage problem instance.

    Attributes
    ----------
    graph:
        The bipartite membership graph (``n`` sets over ``m`` elements).
    kind:
        Which problem is posed on the graph.
    k:
        Cardinality budget for k-cover (ignored by the set cover problems).
    outlier_fraction:
        The ``λ`` of set cover with outliers (ignored otherwise).
    planted_solution:
        Optional set ids of a solution the generator planted; for k-cover it
        is a (near-)optimal size-``k`` family, for set cover a full cover.
    planted_value:
        Coverage value of the planted solution (cached for convenience).
    metadata:
        Free-form information recorded by the generator (sizes, seeds, ...).
    """

    graph: BipartiteGraph
    kind: ProblemKind = ProblemKind.K_COVER
    k: int = 1
    outlier_fraction: float = 0.0
    planted_solution: tuple[int, ...] | None = None
    planted_value: int | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.graph, BipartiteGraph):
            raise InvalidInstanceError("graph must be a BipartiteGraph")
        if self.graph.num_elements == 0:
            raise InvalidInstanceError("instance has no elements (empty ground set)")
        self.kind = ProblemKind(self.kind)
        check_positive_int(self.k, "k")
        check_fraction(self.outlier_fraction, "outlier_fraction")
        if self.k > self.graph.num_sets:
            raise InvalidInstanceError(
                f"k={self.k} exceeds the number of sets n={self.graph.num_sets}"
            )
        if self.planted_solution is not None:
            self.planted_solution = tuple(int(s) for s in self.planted_solution)
            for set_id in self.planted_solution:
                if not 0 <= set_id < self.graph.num_sets:
                    raise InvalidInstanceError(
                        f"planted solution references unknown set id {set_id}"
                    )
            if self.planted_value is None:
                self.planted_value = self.graph.coverage(self.planted_solution)

    # ------------------------------------------------------------------ #
    # sizes
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of sets."""
        return self.graph.num_sets

    @property
    def m(self) -> int:
        """Number of elements."""
        return self.graph.num_elements

    @property
    def num_edges(self) -> int:
        """Number of membership edges."""
        return self.graph.num_edges

    # ------------------------------------------------------------------ #
    # evaluation helpers
    # ------------------------------------------------------------------ #
    def coverage(self, set_ids: Iterable[int]) -> int:
        """Coverage value of a candidate solution on the *original* graph."""
        return self.graph.coverage(set_ids)

    def coverage_fraction(self, set_ids: Iterable[int]) -> float:
        """Covered fraction of the ground set."""
        return self.graph.coverage_fraction(set_ids)

    def reference_value(self) -> int | None:
        """Best known objective value: the planted value when available."""
        return self.planted_value

    def describe(self) -> Mapping[str, Any]:
        """Summary dict used by reports and logs."""
        return {
            "kind": self.kind.value,
            "n": self.n,
            "m": self.m,
            "edges": self.num_edges,
            "k": self.k,
            "outlier_fraction": self.outlier_fraction,
            "planted_value": self.planted_value,
            **{f"meta.{k}": v for k, v in sorted(self.metadata.items())},
        }
