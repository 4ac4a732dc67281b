"""Unit tests for ParallelMapper.map_unordered and pool_scope."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.parallel import ExecutorBackend, ParallelMapper


def _square(x: int) -> int:
    return x * x


def _boom(x: int) -> int:
    if x == 3:
        raise ValueError("job 3 failed")
    return x


def _counting_thread_backend(counter: list[int]) -> ExecutorBackend:
    """A thread backend whose pool creations are counted (for scope tests)."""

    def make_pool(max_workers: int):
        counter.append(max_workers)
        return ThreadPoolExecutor(max_workers=max_workers)

    return ExecutorBackend(name="thread", parallel=True, make_pool=make_pool)


class TestMapUnordered:
    def test_serial_yields_in_input_order(self):
        mapper = ParallelMapper("serial")
        pairs = list(mapper.map_unordered(_square, range(6)))
        assert pairs == [(i, i * i) for i in range(6)]
        assert mapper.last_execution == ("serial", 1)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_pair_set_matches_ordered_map(self, executor):
        mapper = ParallelMapper(executor, max_workers=3)
        jobs = list(range(8))
        unordered = set(mapper.map_unordered(_square, jobs))
        ordered = set(enumerate(mapper.map(_square, jobs)))
        assert unordered == ordered
        assert len(unordered) == len(jobs)

    def test_parallel_records_last_execution(self):
        mapper = ParallelMapper("thread", max_workers=2)
        list(mapper.map_unordered(_square, range(4)))
        assert mapper.last_execution == ("thread", 2)

    def test_single_job_runs_inline(self):
        mapper = ParallelMapper("thread", max_workers=4)
        assert list(mapper.map_unordered(_square, [5])) == [(0, 25)]
        assert mapper.last_execution == ("thread", 1)

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_job_exceptions_propagate(self, executor):
        mapper = ParallelMapper(executor, max_workers=2)
        with pytest.raises(ValueError, match="job 3 failed"):
            list(mapper.map_unordered(_boom, range(6)))

    def test_abandoning_generator_releases_pool(self):
        counter: list[int] = []
        mapper = ParallelMapper(_counting_thread_backend(counter), max_workers=2)
        gen = mapper.map_unordered(_square, range(6))
        next(gen)
        gen.close()
        assert counter  # a pool was created...
        # ...and a fresh map works afterwards (nothing left broken).
        assert sorted(mapper.map_unordered(_square, range(3))) == [
            (0, 0), (1, 1), (2, 4),
        ]


class TestPoolScope:
    def test_scope_reuses_one_pool_across_maps(self):
        counter: list[int] = []
        mapper = ParallelMapper(_counting_thread_backend(counter), max_workers=2)
        with mapper.pool_scope():
            mapper.map(_square, range(4))
            list(mapper.map_unordered(_square, range(4)))
            mapper.map(_square, range(4))
        assert len(counter) == 1

    def test_without_scope_each_map_owns_a_pool(self):
        counter: list[int] = []
        mapper = ParallelMapper(_counting_thread_backend(counter), max_workers=2)
        mapper.map(_square, range(4))
        mapper.map(_square, range(4))
        assert len(counter) == 2

    def test_nested_scopes_share_the_outer_pool(self):
        counter: list[int] = []
        mapper = ParallelMapper(_counting_thread_backend(counter), max_workers=2)
        with mapper.pool_scope():
            mapper.map(_square, range(4))
            with mapper.pool_scope():
                mapper.map(_square, range(4))
            mapper.map(_square, range(4))
        assert len(counter) == 1

    def test_scope_exit_resets_state(self):
        counter: list[int] = []
        mapper = ParallelMapper(_counting_thread_backend(counter), max_workers=2)
        with mapper.pool_scope():
            mapper.map(_square, range(4))
        with mapper.pool_scope():
            mapper.map(_square, range(4))
        assert len(counter) == 2
        assert mapper._scope_pool is None
        assert mapper._scope_depth == 0

    def test_serial_mapper_passes_through(self):
        mapper = ParallelMapper("serial")
        with mapper.pool_scope() as scoped:
            assert scoped is mapper
            assert scoped.map(_square, range(3)) == [0, 1, 4]

    def test_results_identical_inside_and_outside_scope(self):
        mapper = ParallelMapper("thread", max_workers=2)
        outside = mapper.map(_square, range(10))
        with mapper.pool_scope():
            inside = mapper.map(_square, range(10))
        assert inside == outside == [i * i for i in range(10)]
