"""Sketch parameterisation.

Definition 2.1 of the paper fixes two quantities for the sketch
``H_{<=n}(k, ε, δ'')``:

* the **degree cap** applied to element vertices,
  :math:`\\frac{n \\log(1/\\varepsilon)}{\\varepsilon k}`, and
* the **edge budget** at which the construction stops admitting elements,
  :math:`\\frac{24\\, n\\, \\delta\\, \\log(1/\\varepsilon)\\, \\log n}
  {(1-\\varepsilon)\\,\\varepsilon^3}` with
  :math:`\\delta = \\delta'' \\cdot \\log\\bigl(\\log_{1/(1-\\varepsilon)} m\\bigr)`.

Both are ``O~(n)`` and independent of ``m`` — that is the headline result —
but the constants are sized for a worst-case analysis; on laptop-scale
instances the theoretical budget typically exceeds the total number of edges
(so the "sketch" would simply retain the whole input).  To make the space /
quality trade-off *observable* the factory also offers:

* :meth:`SketchParams.scaled` — same formulas with a multiplicative scale
  factor applied to the edge budget (the degree cap is kept), and
* :meth:`SketchParams.explicit` — budgets chosen directly by the caller.

All three modes produce the same dataclass, and the construction code never
looks at the mode — only at the two budgets — so the scaled benchmarks
exercise exactly the code path the theory describes.  DESIGN.md §3 documents
this substitution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils.validation import check_open_unit, check_positive_int

__all__ = ["SketchParams"]


def _safe_log(value: float, minimum: float = 1.0) -> float:
    """Natural log clamped below by ``minimum`` (the paper's logs are all >= 1)."""
    return max(minimum, math.log(max(value, 1.0 + 1e-12)))


def _log_inv_epsilon(epsilon: float) -> float:
    """``log(1/ε)`` with a tiny floor so ε = 1 keeps the formulas finite."""
    return max(math.log(1.0 / epsilon), 1e-9) if epsilon < 1.0 else 1e-9


@dataclass(frozen=True)
class SketchParams:
    """Budgets controlling one ``H_{<=n}`` sketch instance.

    Attributes
    ----------
    num_sets:
        ``n`` — number of sets (known up front).
    num_elements:
        ``m`` — number of elements, or any upper bound (enters only through
        ``log log m``).
    k:
        The solution-size parameter of the sketch.
    epsilon:
        The accuracy parameter ``ε ∈ (0, 1]``.
    delta_prime:
        The failure-probability exponent ``δ''``.
    edge_budget:
        Number of stored edges at which the construction stops admitting new
        elements (Definition 2.1's threshold).
    degree_cap:
        Maximum number of edges kept per element vertex (``H'_p``).
    eviction_slack:
        Extra edges the *streaming* construction may hold transiently before
        evicting the highest-ranked element (Algorithm 2 allows
        ``edge_budget + degree_cap``).
    mode:
        ``"theoretical"``, ``"scaled"`` or ``"explicit"`` — informational.
    """

    num_sets: int
    num_elements: int
    k: int
    epsilon: float
    delta_prime: float
    edge_budget: int
    degree_cap: int
    eviction_slack: int
    mode: str = "theoretical"

    # ------------------------------------------------------------------ #
    # factories
    # ------------------------------------------------------------------ #
    @staticmethod
    def theoretical_degree_cap(num_sets: int, k: int, epsilon: float) -> int:
        """The paper's degree cap ``n log(1/ε) / (ε k)`` (at least 1)."""
        cap = num_sets * _log_inv_epsilon(epsilon) / (epsilon * k)
        return max(1, math.ceil(cap))

    @staticmethod
    def theoretical_delta(num_elements: int, epsilon: float, delta_prime: float) -> float:
        """``δ = δ'' · log(log_{1/(1-ε)} m)`` from Definition 2.1 (clamped ≥ δ'')."""
        if epsilon >= 1.0:
            levels = _safe_log(num_elements)
        else:
            levels = _safe_log(num_elements) / -math.log(1.0 - epsilon)
        return max(delta_prime, delta_prime * _safe_log(levels))

    @staticmethod
    def theoretical_edge_budget(
        num_sets: int, num_elements: int, epsilon: float, delta_prime: float
    ) -> int:
        """The paper's edge budget ``24 n δ log(1/ε) log n / ((1-ε) ε³)``."""
        delta = SketchParams.theoretical_delta(num_elements, epsilon, delta_prime)
        denominator = max(1e-12, (1.0 - epsilon)) * epsilon**3
        budget = (
            24.0 * num_sets * delta * max(_log_inv_epsilon(epsilon), 0.1) * _safe_log(num_sets)
        ) / denominator
        return max(num_sets, math.ceil(budget))

    @classmethod
    def theoretical(
        cls,
        num_sets: int,
        num_elements: int,
        k: int,
        epsilon: float,
        delta_prime: float = 1.0,
    ) -> "SketchParams":
        """Budgets exactly as written in Definition 2.1 / Algorithm 2."""
        check_positive_int(num_sets, "num_sets")
        check_positive_int(num_elements, "num_elements")
        check_positive_int(k, "k")
        check_open_unit(epsilon, "epsilon")
        if delta_prime <= 0:
            raise ValueError("delta_prime must be positive")
        degree_cap = cls.theoretical_degree_cap(num_sets, k, epsilon)
        edge_budget = cls.theoretical_edge_budget(num_sets, num_elements, epsilon, delta_prime)
        return cls(
            num_sets=num_sets,
            num_elements=num_elements,
            k=k,
            epsilon=epsilon,
            delta_prime=delta_prime,
            edge_budget=edge_budget,
            degree_cap=degree_cap,
            eviction_slack=degree_cap,
            mode="theoretical",
        )

    @classmethod
    def scaled(
        cls,
        num_sets: int,
        num_elements: int,
        k: int,
        epsilon: float,
        *,
        delta_prime: float = 1.0,
        scale: float = 1.0,
        min_edges_per_set: int = 4,
    ) -> "SketchParams":
        """Practically sized budgets: ``edge_budget ≈ scale · n · log n / ε``.

        The shape (linear in ``n``, independent of ``m``, ``1/ε`` dependence)
        matches the theory; the worst-case constant 24·δ·log(1/ε)/((1-ε)ε²)
        is replaced by the tunable ``scale``.  The degree cap is the paper's.
        """
        check_positive_int(num_sets, "num_sets")
        check_positive_int(num_elements, "num_elements")
        check_positive_int(k, "k")
        check_open_unit(epsilon, "epsilon")
        if scale <= 0:
            raise ValueError("scale must be positive")
        degree_cap = cls.theoretical_degree_cap(num_sets, k, epsilon)
        edge_budget = math.ceil(
            scale * num_sets * _safe_log(num_sets) / epsilon
        )
        edge_budget = max(edge_budget, min_edges_per_set * num_sets, k + 1)
        return cls(
            num_sets=num_sets,
            num_elements=num_elements,
            k=k,
            epsilon=epsilon,
            delta_prime=delta_prime,
            edge_budget=edge_budget,
            degree_cap=degree_cap,
            eviction_slack=degree_cap,
            mode="scaled",
        )

    @classmethod
    def explicit(
        cls,
        num_sets: int,
        num_elements: int,
        k: int,
        epsilon: float,
        *,
        edge_budget: int,
        degree_cap: int | None = None,
        delta_prime: float = 1.0,
        eviction_slack: int | None = None,
    ) -> "SketchParams":
        """Budgets supplied directly (used by ablations and unit tests)."""
        check_positive_int(num_sets, "num_sets")
        check_positive_int(num_elements, "num_elements")
        check_positive_int(k, "k")
        check_open_unit(epsilon, "epsilon")
        check_positive_int(edge_budget, "edge_budget")
        if degree_cap is None:
            degree_cap = cls.theoretical_degree_cap(num_sets, k, epsilon)
        check_positive_int(degree_cap, "degree_cap")
        slack = degree_cap if eviction_slack is None else eviction_slack
        return cls(
            num_sets=num_sets,
            num_elements=num_elements,
            k=k,
            epsilon=epsilon,
            delta_prime=delta_prime,
            edge_budget=edge_budget,
            degree_cap=degree_cap,
            eviction_slack=slack,
            mode="explicit",
        )

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #
    @property
    def max_stored_edges(self) -> int:
        """Upper bound on edges the streaming builder may hold at any time."""
        return self.edge_budget + self.eviction_slack

    @property
    def sample_size(self) -> int:
        """Number of elements Algorithm 2 pre-samples (budget + degree cap edges)."""
        return self.edge_budget + self.degree_cap

    def describe(self) -> dict[str, float | int | str]:
        """Summary dict for logs and reports."""
        return {
            "mode": self.mode,
            "n": self.num_sets,
            "m": self.num_elements,
            "k": self.k,
            "epsilon": self.epsilon,
            "delta_prime": self.delta_prime,
            "edge_budget": self.edge_budget,
            "degree_cap": self.degree_cap,
            "eviction_slack": self.eviction_slack,
        }
