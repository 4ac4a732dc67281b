"""Unit tests for repro.utils.timer."""

from __future__ import annotations

import time

import pytest

from repro.obs.clock import fake_clock
from repro.utils.timer import Stopwatch


class TestStopwatch:
    def test_sections_recorded(self):
        sw = Stopwatch()
        with sw.section("build"):
            time.sleep(0.001)
        with sw.section("solve"):
            pass
        assert set(sw.sections()) == {"build", "solve"}
        assert sw.elapsed("build") > 0
        assert sw.elapsed("missing") == 0.0

    def test_section_reentry_accumulates(self):
        sw = Stopwatch()
        for _ in range(3):
            with sw.section("loop"):
                time.sleep(0.001)
        assert sw.as_dict()["loop"] >= 0.002

    def test_a_raising_section_still_counts(self):
        sw = Stopwatch()
        with fake_clock(tick=0.5), pytest.raises(RuntimeError):
            with sw.section("fail"):
                raise RuntimeError("boom")
        assert sw.as_dict() == {"fail": 0.5}

    def test_reentry_sums_exact_durations(self):
        sw = Stopwatch()
        with fake_clock() as clock:
            for seconds in (0.5, 1.25, 2.0):
                with sw.section("loop"):
                    clock.advance(seconds)
        assert sw.elapsed("loop") == 3.75
        assert sw.sections() == ["loop"]

    def test_sections_are_timed_separately_and_nest(self):
        sw = Stopwatch()
        with fake_clock() as clock:
            with sw.section("outer"):
                clock.advance(1.0)
                with sw.section("inner"):
                    clock.advance(2.0)
        assert sw.as_dict() == {"outer": 3.0, "inner": 2.0}

    def test_reading_a_missing_section_records_nothing(self):
        sw = Stopwatch()
        assert sw.elapsed("never") == 0.0
        assert sw.sections() == []
        assert sw.as_dict() == {}

    def test_as_dict_is_a_copy(self):
        sw = Stopwatch()
        with fake_clock(tick=1.0):
            with sw.section("build"):
                pass
        snapshot = sw.as_dict()
        snapshot["build"] = 99.0
        snapshot["solve"] = 1.0
        assert sw.as_dict() == {"build": 1.0}
        assert sw.sections() == ["build"]
