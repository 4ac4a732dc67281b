"""The packed-key sorts behind the merge fold and the set-major CSR.

Three contracts pinned here, each against the multi-key sort it replaced:

1. :func:`~repro.core.sketch_columns.admission_order` is the permutation
   ``np.lexsort((set_ids, elements, ranks))`` returns — on fold-shaped input
   (concatenated sorted runs), on shuffled rows, on ranks that distinct
   elements share (its tie fallback), on duplicate rows, on set ids too
   large to pack (its key-range fallback), on a NaN rank, and on zero or one
   row.
2. The coordinator's ``_fold`` is byte-identical to the lexsort fold kept
   here as a reference: columns, dtypes, threshold and truncation flags,
   under small budgets, degree caps that truncate, carried flags and
   thresholds that filter rows.
3. ``_set_major_csr`` equals the ``np.unique`` + lexsort CSR, and
   :func:`~repro.coverage.bipartite.dense_ids` equals ``np.unique``'s
   inverse; the packed kernel built on it is byte-identical to one built
   from ``np.unique``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import SketchParams
from repro.core.sketch_columns import SketchColumns, admission_order, element_starts
from repro.coverage.bipartite import dense_ids, run_starts
from repro.coverage.bitset import BitsetCoverage, pack_rows
from repro.distributed.coordinator import _fold
from repro.errors import SpecError
from repro.offline.greedy import _set_major_csr
from repro.utils.rng import spawn_rng

SEEDS = range(40)


def _rows(rng, n, *, tied=False, set_range=50, element_range=30):
    elements = rng.integers(0, element_range, n).astype(np.uint64)
    if tied:
        # One decimal: distinct elements share ranks, duplicates share rows.
        ranks = np.round(rng.random(n), 1)
    else:
        # A rank per element, as a shared hash gives.
        ranks = (elements * np.uint64(2654435761) % np.uint64(1009)).astype(np.float64) / 1009
    set_ids = rng.integers(0, set_range, n, dtype=np.uint64)
    return ranks, elements, set_ids


def _check_order(ranks, elements, set_ids):
    order = admission_order(ranks, elements, set_ids)
    expected = np.lexsort((set_ids, elements, ranks))
    assert order.dtype == expected.dtype
    np.testing.assert_array_equal(order, expected)


class TestAdmissionOrder:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_shuffled_rows(self, seed):
        rng = spawn_rng(seed, "admission-order")
        _check_order(*_rows(rng, int(rng.integers(2, 300))))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_concatenated_sorted_runs(self, seed):
        rng = spawn_rng(seed, "admission-order")
        runs = []
        for _ in range(int(rng.integers(1, 5))):
            ranks, elements, set_ids = _rows(rng, int(rng.integers(0, 120)))
            order = np.lexsort((set_ids, elements, ranks))
            runs.append((ranks[order], elements[order], set_ids[order]))
        _check_order(*(np.concatenate(column) for column in zip(*runs)))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_ranks_shared_by_distinct_elements(self, seed):
        rng = spawn_rng(seed, "admission-order")
        # 11 rank values over 30 elements: some rank is shared.
        ranks, elements, set_ids = _rows(rng, int(rng.integers(60, 300)), tied=True)
        by_rank = np.lexsort((elements, ranks))
        assert (run_starts(elements[by_rank]) & ~run_starts(ranks[by_rank])).any()
        _check_order(ranks, elements, set_ids)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_duplicate_rows(self, seed):
        rng = spawn_rng(seed, "admission-order")
        ranks, elements, set_ids = _rows(rng, int(rng.integers(1, 100)), set_range=3)
        pick = rng.integers(0, len(ranks), 3 * len(ranks))
        _check_order(ranks[pick], elements[pick], set_ids[pick])

    @pytest.mark.parametrize("seed", range(10))
    def test_set_ids_too_large_to_pack(self, seed):
        rng = spawn_rng(seed, "admission-order")
        ranks, elements, set_ids = _rows(rng, int(rng.integers(2, 200)))
        set_ids = rng.integers(2**62, 2**64 - 1, len(ranks), dtype=np.uint64, endpoint=True)
        set_ids[: len(set_ids) // 2] %= np.uint64(7)
        _check_order(ranks, elements, set_ids)

    @pytest.mark.parametrize("width", [2**62 - 1, 2**62])
    def test_keys_at_the_edge_of_int64(self, width):
        # Two rank groups: keys reach 2 * width - 1, which fits int64 only
        # for the smaller width.
        ranks = np.array([0.5, 0.25, 0.5, 0.25])
        elements = np.array([1, 2, 1, 2], dtype=np.uint64)
        set_ids = np.array([width - 1, 0, 3, width - 1], dtype=np.uint64)
        _check_order(ranks, elements, set_ids)

    def test_nan_rank(self):
        ranks = np.array([np.nan, 0.5, np.nan, 0.5])
        elements = np.array([4, 1, 3, 1], dtype=np.uint64)
        set_ids = np.array([0, 2, 1, 1], dtype=np.uint64)
        _check_order(ranks, elements, set_ids)

    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_and_single_row(self, n):
        _check_order(
            np.full(n, 0.5), np.full(n, 3, dtype=np.uint64), np.full(n, 9, dtype=np.uint64)
        )


def _reference_fold(runs, params):
    """The merge fold on ``np.lexsort``, as the coordinator ran it before
    :func:`admission_order`."""
    global_threshold = min(run.threshold for run in runs)
    ranks = np.concatenate([run.ranks for run in runs])
    elements = np.concatenate([run.elements for run in runs])
    set_ids = np.concatenate([run.set_ids for run in runs])
    keep = ranks <= global_threshold
    ranks, elements, set_ids = ranks[keep], elements[keep], set_ids[keep]
    order = np.lexsort((set_ids, elements, ranks))
    ranks, elements, set_ids = ranks[order], elements[order], set_ids[order]
    fresh = np.ones(len(ranks), dtype=bool)
    fresh[1:] = (elements[1:] != elements[:-1]) | (set_ids[1:] != set_ids[:-1])
    ranks, elements, set_ids = ranks[fresh], elements[fresh], set_ids[fresh]
    if len(ranks) == 0:
        return SketchColumns(ranks, elements, set_ids, global_threshold)
    starts = element_starts(elements)
    degrees = np.diff(np.r_[starts, len(elements)])
    run_id = np.repeat(np.arange(len(starts)), degrees)
    within_run = np.arange(len(elements)) - starts[run_id]
    capped_degrees = np.minimum(degrees, params.degree_cap)
    edges_before = np.cumsum(capped_degrees) - capped_degrees
    admitted_runs = edges_before < params.edge_budget
    stored = (within_run < params.degree_cap) & admitted_runs[run_id]
    admitted = elements[starts[admitted_runs]]
    carried = np.concatenate([run.truncated for run in runs])
    truncated = np.union1d(
        elements[starts[admitted_runs & (degrees > params.degree_cap)]],
        carried[np.isin(carried, admitted)],
    )
    if bool(admitted_runs.all()):
        threshold = global_threshold
    else:
        threshold = float(ranks[starts[admitted_runs][-1]])
    return SketchColumns(
        ranks[stored], elements[stored], set_ids[stored], threshold, truncated
    )


def _column_bytes(columns):
    return [
        (column.dtype.str, column.tobytes())
        for column in (columns.ranks, columns.elements, columns.set_ids, columns.truncated)
    ] + [float(columns.threshold).hex()]


def _fold_runs(rng, *, tied, flagged, filtered):
    runs = []
    for _ in range(int(rng.integers(1, 5))):
        ranks, elements, set_ids = _rows(
            rng, int(rng.integers(0, 80)), tied=tied, set_range=12, element_range=25
        )
        threshold = float(rng.random()) if filtered else 1.0
        truncated = (
            rng.choice(elements, size=min(3, len(elements)))
            if flagged
            else np.empty(0, dtype=np.uint64)
        )
        order = admission_order(ranks, elements, set_ids)
        runs.append(
            SketchColumns(
                ranks[order], elements[order], set_ids[order], threshold, np.unique(truncated)
            )
        )
    return runs


class TestFold:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "tied, flagged, filtered",
        [(False, False, False), (True, False, False), (False, True, False), (True, True, True)],
    )
    def test_matches_the_lexsort_fold(self, seed, tied, flagged, filtered):
        rng = spawn_rng(seed, "admission-order")
        runs = _fold_runs(rng, tied=tied, flagged=flagged, filtered=filtered)
        params = SketchParams.explicit(
            12,
            25,
            3,
            0.2,
            edge_budget=int(rng.integers(1, 90)),
            degree_cap=int(rng.integers(1, 6)),
        )
        assert _column_bytes(_fold(runs, params)) == _column_bytes(
            _reference_fold(runs, params)
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_everything_fits(self, seed):
        # The distributed workload's case: no filter, cap, budget cut or flag.
        rng = spawn_rng(seed, "admission-order")
        runs = _fold_runs(rng, tied=False, flagged=False, filtered=False)
        params = SketchParams.explicit(12, 25, 3, 0.2, edge_budget=10_000, degree_cap=100)
        folded = _fold(runs, params)
        assert _column_bytes(folded) == _column_bytes(_reference_fold(runs, params))
        assert folded.num_edges == len(
            {(int(e), int(s)) for run in runs for e, s in zip(run.elements, run.set_ids)}
        )


def _reference_csr(num_sets, set_ids, elements):
    """The set-major CSR from ``np.unique`` and a two-key lexsort."""
    set_ids, elements = np.asarray(set_ids), np.asarray(elements)
    distinct, ranks = np.unique(elements, return_inverse=True)
    order = np.lexsort((ranks, set_ids))
    owners, ranks = set_ids[order].astype(np.intp), ranks[order]
    fresh = run_starts(owners) | run_starts(ranks)
    offsets = np.zeros(num_sets + 1, dtype=np.int64)
    np.cumsum(np.bincount(owners[fresh], minlength=num_sets), out=offsets[1:])
    return offsets, ranks[fresh], len(distinct)


def _csr_bytes(csr):
    offsets, members, num_elements = csr
    return offsets.dtype.str, offsets.tobytes(), members.dtype.str, members.tobytes(), num_elements


class TestSetMajorCsr:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_the_unique_lexsort_csr(self, seed):
        rng = spawn_rng(seed, "admission-order")
        num_sets = int(rng.integers(1, 40))
        n = int(rng.integers(0, 400))
        set_ids = rng.integers(0, num_sets, n).astype(np.uint64)
        scale = np.uint64(2**40 if seed % 2 else 1)
        elements = rng.integers(0, int(rng.integers(1, 200)), n).astype(np.uint64) * scale
        assert _csr_bytes(_set_major_csr(num_sets, set_ids, elements)) == _csr_bytes(
            _reference_csr(num_sets, set_ids, elements)
        )

    @pytest.mark.parametrize("dtype", [np.uint64, np.int64, np.float64])
    def test_empty_columns(self, dtype):
        empty = np.empty(0, dtype=dtype)
        assert _csr_bytes(_set_major_csr(5, empty, empty)) == _csr_bytes(
            _reference_csr(5, empty, empty)
        )

    def test_keys_past_int64_raise(self):
        with pytest.raises(SpecError, match="int64"):
            _set_major_csr(2**62, np.zeros(3, dtype=np.uint64), np.arange(3, dtype=np.uint64))


class TestDenseIds:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_unique_inverse(self, seed):
        rng = spawn_rng(seed, "admission-order")
        values = rng.integers(0, int(rng.integers(1, 100)), int(rng.integers(0, 300)))
        ids, count = dense_ids(values.astype(np.uint64))
        distinct, inverse = np.unique(values, return_inverse=True)
        assert ids.dtype == inverse.dtype
        np.testing.assert_array_equal(ids, inverse)
        assert count == len(distinct)

    @pytest.mark.parametrize("seed", range(10))
    def test_packed_kernel_matches_unique_packing(self, seed):
        rng = spawn_rng(seed, "admission-order")
        num_sets, n = int(rng.integers(1, 30)), int(rng.integers(1, 300))
        set_ids = rng.integers(0, num_sets, n).astype(np.uint64)
        pool = rng.integers(0, 2**50, int(rng.integers(1, 80)), dtype=np.uint64)
        elements = pool[rng.integers(0, len(pool), n)]
        distinct, ranks = np.unique(elements, return_inverse=True)
        dense = np.zeros((num_sets, max(1, len(distinct))), dtype=bool)
        dense[set_ids.astype(np.intp), ranks] = True
        kernel = BitsetCoverage.from_columns(num_sets, set_ids, elements)
        assert kernel.num_elements == len(distinct)
        expected = pack_rows(dense)
        assert kernel._packed.dtype == expected.dtype
        assert kernel._packed.tobytes() == expected.tobytes()
