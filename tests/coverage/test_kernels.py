"""Unit tests for the packed-row primitives behind the bitset coverage kernel."""

from __future__ import annotations

import numpy as np
import pytest

import repro.coverage.bitset as bitset_module
from repro.coverage.bitset import pack_rows, popcount_rows
from repro.utils.rng import spawn_rng


class TestPrimitives:
    @pytest.mark.parametrize("width", [1, 63, 64, 65, 100, 640])
    def test_pack_popcount_round_trip(self, width):
        rng = spawn_rng(7, "kernel-pack-round-trip")
        dense = rng.random((5, width)) < 0.3
        packed = pack_rows(dense)
        assert packed.dtype == np.uint64
        assert packed.shape == (5, -(-width // 64))
        assert popcount_rows(packed, 1).tolist() == dense.sum(axis=1).tolist()
        assert int(popcount_rows(packed, None)) == int(dense.sum())

    def test_packing_pads_to_whole_words(self):
        dense = np.ones((2, 9), dtype=bool)  # 9 bits -> 2 bytes -> 1 word
        packed = pack_rows(dense)
        assert packed.shape == (2, 1)
        assert popcount_rows(packed, 1).tolist() == [9, 9]

    def test_fallback_popcount_matches_native(self, monkeypatch):
        rng = spawn_rng(11, "kernel-fallback-popcount")
        rows = rng.integers(0, 2**63, size=(4, 6), dtype=np.uint64)
        native = popcount_rows(rows, 1)
        monkeypatch.setattr(bitset_module, "_HAS_BITWISE_COUNT", False)
        assert popcount_rows(rows, 1).tolist() == native.tolist()
        assert int(popcount_rows(rows, None)) == int(native.sum())

    def test_wrappers_expose_the_raw_primitives(self):
        dense = spawn_rng(3, "kernel-raw-primitives").random((3, 70)) < 0.5
        packed = pack_rows.__wrapped__(dense)
        assert np.array_equal(packed, pack_rows(dense))
        assert (
            popcount_rows.__wrapped__(packed, 1).tolist()
            == popcount_rows(packed, 1).tolist()
        )
