"""Unit tests for repro.streaming.space."""

from __future__ import annotations

import pytest

from repro.errors import SpaceBudgetExceeded
from repro.streaming.space import SpaceMeter
from repro.utils.rng import spawn_rng


class TestCharging:
    def test_charge_and_peak(self):
        meter = SpaceMeter()
        meter.charge(5)
        meter.charge(3)
        meter.release(4)
        assert meter.current == 4
        assert meter.peak == 8
        assert meter.total_charged == 8

    def test_charge_negative_rejected(self):
        with pytest.raises(ValueError):
            SpaceMeter().charge(-1)

    def test_release_floors_at_zero(self):
        meter = SpaceMeter()
        meter.charge(2)
        meter.release(10)
        assert meter.current == 0

    def test_release_negative_rejected(self):
        with pytest.raises(ValueError):
            SpaceMeter().release(-1)


class TestApply:
    """``apply`` records a whole charge/release sequence in one step."""

    @staticmethod
    def _totals(steps):
        charged = released = rise = high = 0
        for step in steps:
            if step > 0:
                charged += step
            else:
                released -= step
            rise += step
            high = max(high, rise)
        return charged, released, high

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_sequence_it_summarises(self, seed):
        rng = spawn_rng(seed, "space-apply")
        one_by_one, in_bulk = SpaceMeter(), SpaceMeter()
        for _ in range(6):
            # Another user of the meter moves it between the sequences.
            for meter in (one_by_one, in_bulk):
                meter.charge(3)
            steps, level = [], 0
            for _ in range(int(rng.integers(0, 12))):
                step = max(int(rng.choice([1, 1, 2, -1, -3])), -level)
                level += step
                steps.append(step)
            for step in steps:
                if step > 0:
                    one_by_one.charge(step)
                elif step < 0:
                    one_by_one.release(-step)
            in_bulk.apply(*self._totals(steps))
            assert in_bulk.as_dict() == one_by_one.as_dict()

    def test_peak_counts_from_the_current_usage(self):
        meter = SpaceMeter()
        meter.charge(10)
        meter.release(6)
        meter.apply(5, 7, 3)
        assert (meter.current, meter.peak, meter.total_charged) == (2, 10, 15)
        meter.apply(9, 0, 9)
        assert (meter.current, meter.peak) == (11, 11)

    def test_rejects_a_budget_and_inconsistent_totals(self):
        with pytest.raises(ValueError):
            SpaceMeter(budget=5).apply(1, 0, 1)
        for totals in [(-1, 0, 0), (1, -1, 1), (3, 1, 1), (2, 0, 3)]:
            with pytest.raises(ValueError):
                SpaceMeter().apply(*totals)


class TestBudget:
    def test_budget_enforced(self):
        meter = SpaceMeter(budget=3)
        meter.charge(3)
        with pytest.raises(SpaceBudgetExceeded) as excinfo:
            meter.charge(1)
        assert excinfo.value.used == 4
        assert excinfo.value.budget == 3

    def test_budget_not_enforced_records_violation(self):
        meter = SpaceMeter(budget=3, enforce=False)
        meter.charge(10)
        assert meter.violations == 1
        assert not meter.within_budget

    def test_within_budget_without_budget(self):
        meter = SpaceMeter()
        meter.charge(1_000_000)
        assert meter.within_budget


class TestReporting:
    def test_as_dict_keys(self):
        meter = SpaceMeter(budget=10, unit="words")
        meter.charge(1)
        info = meter.as_dict()
        assert info["unit"] == "words"
        assert info["budget"] == 10
        assert info["peak"] == 1
        assert info["within_budget"] is True
