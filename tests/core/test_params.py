"""Unit tests for repro.core.params."""

from __future__ import annotations

import math

import pytest

from repro.core.params import SketchParams


class TestTheoretical:
    def test_degree_cap_formula(self):
        # n log(1/eps) / (eps k), rounded up.
        cap = SketchParams.theoretical_degree_cap(num_sets=100, k=5, epsilon=0.5)
        expected = math.ceil(100 * math.log(2.0) / (0.5 * 5))
        assert cap == expected

    def test_degree_cap_at_least_one(self):
        assert SketchParams.theoretical_degree_cap(1, 1000, 1.0) >= 1

    def test_edge_budget_is_linear_in_n(self):
        small = SketchParams.theoretical_edge_budget(100, 10_000, 0.5, 1.0)
        large = SketchParams.theoretical_edge_budget(200, 10_000, 0.5, 1.0)
        # log n grows slowly, so doubling n should roughly double the budget.
        assert 1.8 <= large / small <= 2.5

    def test_edge_budget_independent_of_m_up_to_loglog(self):
        b1 = SketchParams.theoretical_edge_budget(100, 10_000, 0.5, 1.0)
        b2 = SketchParams.theoretical_edge_budget(100, 10_000_000, 0.5, 1.0)
        assert b2 / b1 < 2.0  # only log log m dependence

    def test_edge_budget_grows_as_epsilon_shrinks(self):
        loose = SketchParams.theoretical_edge_budget(100, 10_000, 0.5, 1.0)
        tight = SketchParams.theoretical_edge_budget(100, 10_000, 0.1, 1.0)
        assert tight > loose

    def test_theoretical_factory_fields(self):
        params = SketchParams.theoretical(100, 10_000, 5, 0.5, delta_prime=2.0)
        assert params.mode == "theoretical"
        assert params.edge_budget >= params.num_sets
        assert params.eviction_slack == params.degree_cap
        assert params.sample_size == params.edge_budget + params.degree_cap
        assert params.max_stored_edges == params.edge_budget + params.eviction_slack

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            SketchParams.theoretical(10, 10, 2, 0.0)
        with pytest.raises(ValueError):
            SketchParams.theoretical(10, 10, 2, 1.5)

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            SketchParams.theoretical(10, 10, 2, 0.5, delta_prime=0.0)


class TestScaled:
    def test_scaled_budget_shape(self):
        params = SketchParams.scaled(1000, 1_000_000, 10, 0.2, scale=1.0)
        assert params.mode == "scaled"
        # ~ n log n / eps
        expected = math.ceil(1000 * math.log(1000) / 0.2)
        assert params.edge_budget == max(expected, 4 * 1000, 11)

    def test_scaled_smaller_than_theoretical(self):
        scaled = SketchParams.scaled(500, 100_000, 10, 0.2)
        theory = SketchParams.theoretical(500, 100_000, 10, 0.2)
        assert scaled.edge_budget < theory.edge_budget

    def test_scale_multiplies_budget(self):
        base = SketchParams.scaled(1000, 10_000, 5, 0.3, scale=1.0)
        double = SketchParams.scaled(1000, 10_000, 5, 0.3, scale=2.0)
        assert double.edge_budget >= 1.8 * base.edge_budget

    def test_degree_cap_matches_theory(self):
        params = SketchParams.scaled(300, 5_000, 6, 0.4)
        assert params.degree_cap == SketchParams.theoretical_degree_cap(300, 6, 0.4)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            SketchParams.scaled(10, 10, 2, 0.5, scale=0.0)


class TestExplicit:
    def test_explicit_budgets_respected(self):
        params = SketchParams.explicit(50, 500, 3, 0.5, edge_budget=123, degree_cap=7)
        assert params.edge_budget == 123
        assert params.degree_cap == 7
        assert params.mode == "explicit"

    def test_default_degree_cap(self):
        params = SketchParams.explicit(50, 500, 3, 0.5, edge_budget=100)
        assert params.degree_cap == SketchParams.theoretical_degree_cap(50, 3, 0.5)

    def test_custom_eviction_slack(self):
        params = SketchParams.explicit(
            50, 500, 3, 0.5, edge_budget=100, degree_cap=5, eviction_slack=0
        )
        assert params.max_stored_edges == 100


class TestDerived:
    def test_describe_keys(self):
        params = SketchParams.scaled(10, 100, 2, 0.5)
        info = params.describe()
        assert {"mode", "n", "m", "k", "epsilon", "edge_budget", "degree_cap"} <= set(info)

    def test_frozen(self):
        params = SketchParams.scaled(10, 100, 2, 0.5)
        with pytest.raises(AttributeError):
            params.edge_budget = 1  # type: ignore[misc]
