"""Fixture snippets for the lint rule tests.

Each rule gets a BAD_* snippet (planted violation), a GOOD_* snippet (the
compliant way to write the same thing) and a SUPPRESSED_* snippet (the
violation silenced by a justified inline suppression).  The snippets live as
string constants so the tree-wide self-lint test never sees them as code.
"""

from __future__ import annotations

import textwrap


def clean(snippet: str) -> str:
    """Dedent a fixture snippet."""
    return textwrap.dedent(snippet).lstrip("\n")


# --------------------------------------------------------------------- #
# no-raw-rng
# --------------------------------------------------------------------- #
BAD_RAW_RNG = clean(
    """
    import numpy as np

    def make_stream():
        return np.random.default_rng()
    """
)

BAD_RAW_RNG_STDLIB = clean(
    """
    import random

    def shuffle(items):
        random.shuffle(items)
    """
)

BAD_RAW_RNG_TIME_SEED = clean(
    """
    import time

    def build(builder):
        return builder(seed=int(time.time()))
    """
)

BAD_RAW_RNG_IMPORT_FROM = clean(
    """
    from numpy.random import default_rng

    def make_stream():
        return default_rng(3)
    """
)

GOOD_RAW_RNG = clean(
    """
    from repro.utils.rng import spawn_rng

    def make_stream(master_seed):
        return spawn_rng(master_seed, "my-subsystem")
    """
)

SUPPRESSED_RAW_RNG = clean(
    """
    import numpy as np

    def make_stream():
        return np.random.default_rng(7)  # repro-lint: disable=no-raw-rng -- literal seed, scratch analysis only
    """
)


# --------------------------------------------------------------------- #
# raw-timing
# --------------------------------------------------------------------- #
BAD_RAW_TIMING = clean(
    """
    import time

    def measure(fn):
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start
    """
)

BAD_RAW_TIMING_WALL = clean(
    """
    import time

    def stamp():
        return time.time()
    """
)

BAD_RAW_TIMING_IMPORT_FROM = clean(
    """
    from time import monotonic

    def measure():
        return monotonic()
    """
)

GOOD_RAW_TIMING = clean(
    """
    import time

    from repro.obs import clock

    def measure(fn):
        start = clock.perf_counter()
        fn()
        time.sleep(0.0)
        return clock.perf_counter() - start
    """
)

SUPPRESSED_RAW_TIMING = clean(
    """
    import time

    def measure():
        # repro-lint: disable=raw-timing -- calibrates the fake clock against the real one
        return time.perf_counter()
    """
)


# --------------------------------------------------------------------- #
# picklable-jobs
# --------------------------------------------------------------------- #
BAD_PICKLABLE_LAMBDA = clean(
    """
    def fan_out(mapper, jobs):
        return mapper.map(lambda job: job.run(), jobs)
    """
)

BAD_PICKLABLE_CLOSURE = clean(
    """
    def fan_out(mapper, jobs):
        def helper(job):
            return job.run()

        return mapper.map(helper, jobs)
    """
)

BAD_PICKLABLE_BOUND_METHOD = clean(
    """
    class Coordinator:
        def fan_out(self, mapper, jobs):
            return mapper.map(self.execute, jobs)
    """
)

BAD_PICKLABLE_SUBMIT = clean(
    """
    def fan_out(pool, jobs):
        return [pool.submit(lambda: job.run()) for job in jobs]
    """
)

BAD_PICKLABLE_JOB_FIELD = clean(
    """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class LeakyShardJob:
        machine_id: int
        stream: EdgeStream
    """
)

GOOD_PICKLABLE = clean(
    """
    def execute_map_job(job):
        return job.run()

    def fan_out(mapper, jobs):
        return mapper.map(execute_map_job, jobs)
    """
)

GOOD_PICKLABLE_JOB_FIELD = clean(
    """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class SliceJob:
        machine_id: int
        path: str
        row_start: int
        row_stop: int
    """
)

SUPPRESSED_PICKLABLE = clean(
    """
    def fan_out(mapper, jobs):
        # repro-lint: disable=picklable-jobs -- serial-only helper, never reaches a process pool
        return mapper.map(lambda job: job.run(), jobs)
    """
)


# --------------------------------------------------------------------- #
# spec-roundtrip
# --------------------------------------------------------------------- #
BAD_SPEC_DROPPED_FIELD = clean(
    """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class MiniSpec:
        alpha: int
        beta: int

        def to_dict(self):
            return {"alpha": self.alpha}

        @classmethod
        def from_dict(cls, data):
            return cls(alpha=data["alpha"], beta=data["beta"])
    """
)

BAD_SPEC_ONE_DIRECTION = clean(
    """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class MiniSpec:
        alpha: int

        def to_dict(self):
            return {"alpha": self.alpha}
    """
)

BAD_SPEC_FROM_DICT_MISSES = clean(
    """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class MiniSpec:
        alpha: int
        beta: int

        def to_dict(self):
            return {"alpha": self.alpha, "beta": self.beta}

        @classmethod
        def from_dict(cls, data):
            return cls(alpha=data["alpha"])
    """
)

GOOD_SPEC = clean(
    """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class MiniSpec:
        alpha: int
        beta: int

        def to_dict(self):
            return {"alpha": self.alpha, "beta": self.beta}

        @classmethod
        def from_dict(cls, data):
            return cls(**data)
    """
)

SUPPRESSED_SPEC = clean(
    """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class MiniSpec:
        alpha: int
        beta: int

        # repro-lint: disable=spec-roundtrip -- beta is derived, reconstructed by __post_init__
        def to_dict(self):
            return {"alpha": self.alpha}

        @classmethod
        def from_dict(cls, data):
            return cls(**data)
    """
)


# --------------------------------------------------------------------- #
# hot-path-hygiene
# --------------------------------------------------------------------- #
BAD_HOT_PATH_TOLIST = clean(
    """
    class Algo:
        def process_batch(self, batch):
            for element in batch.elements.tolist():
                self._admit(element)
    """
)

BAD_HOT_PATH_LOOP = clean(
    """
    class Algo:
        def process_batch(self, batch):
            for set_id in batch.set_ids:
                self._offer(int(set_id))
    """
)

GOOD_HOT_PATH = clean(
    """
    class Algo:
        def process_batch(self, batch):
            survivors = self._ranks(batch) < self._threshold
            for element in batch.elements[survivors].tolist():
                self._admit(element)
    """
)

GOOD_HOT_PATH_OUTSIDE = clean(
    """
    def debug_dump(batch):
        return batch.elements.tolist()
    """
)

SUPPRESSED_HOT_PATH = clean(
    """
    class Algo:
        def process_batch(self, batch):
            # repro-lint: disable=hot-path-hygiene -- admission is sequential and data-dependent
            for element in batch.elements.tolist():
                self._admit(element)
    """
)

#: The reduce's graph round trip — linted as ``distributed/coordinator.py``.
BAD_REDUCE_ADD_EDGE = clean(
    """
    def rebuild(rows, num_sets):
        graph = BipartiteGraph(num_sets)
        for set_id, element in rows:
            graph.add_edge(set_id, element)
        return graph
    """
)

BAD_REDUCE_EDGES_LOOP = clean(
    """
    def sketch_columns(sketch):
        sets = np.empty(sketch.num_edges, dtype=np.uint64)
        for row, (set_id, _) in enumerate(sketch.graph.edges()):
            sets[row] = set_id
        return sets
    """
)

BAD_REDUCE_EDGES_COMPREHENSION = clean(
    """
    def sketch_elements(sketch):
        return [element for _, element in sketch.graph.edges()]
    """
)

GOOD_REDUCE = clean(
    """
    def materialize(columns, num_sets):
        return BipartiteGraph.from_columns(num_sets, columns.set_ids, columns.elements)
    """
)

SUPPRESSED_REDUCE_ADD_EDGE = clean(
    """
    def rebuild(rows, num_sets):
        graph = BipartiteGraph(num_sets)
        for set_id, element in rows:
            # repro-lint: disable=hot-path-hygiene -- a handful of rows in an error path
            graph.add_edge(set_id, element)
        return graph
    """
)


# --------------------------------------------------------------------- #
# registry-literal-names
# --------------------------------------------------------------------- #
BAD_REGISTRY_COMPUTED = clean(
    """
    PREFIX = "kcover"

    @register_solver(PREFIX + "/mine", problems=("k_cover",), arrival="edge")
    def _build(ctx):
        return None
    """
)

BAD_REGISTRY_WHITESPACE = clean(
    """
    @register_solver("kcover/my solver", problems=("k_cover",), arrival="edge")
    def _build(ctx):
        return None
    """
)

GOOD_REGISTRY = clean(
    """
    @register_solver("kcover/mine", problems=("k_cover",), arrival="edge")
    def _build(ctx):
        return None

    @register_dataset("mine", summary="a fixture workload")
    def _make(seed):
        return None
    """
)

SUPPRESSED_REGISTRY = clean(
    """
    @register_solver(PREFIX + "/mine", problems=("k_cover",), arrival="edge")  # repro-lint: disable=registry-literal-names -- plugin namespace computed at import, validated by its own tests
    def _build(ctx):
        return None
    """
)


# --------------------------------------------------------------------- #
# no-silent-except
# --------------------------------------------------------------------- #
BAD_SILENT_BARE = clean(
    """
    def load(path):
        try:
            return open_columnar(path)
        except:
            return None
    """
)

BAD_SILENT_PASS = clean(
    """
    def drain(pool, jobs):
        try:
            return [job.result() for job in jobs]
        except OSError:
            pass
    """
)

GOOD_SILENT = clean(
    """
    def drain(pool, jobs):
        try:
            return [job.result() for job in jobs]
        except OSError:
            return fallback(jobs)
    """
)

SUPPRESSED_SILENT = clean(
    """
    def drain(pool, jobs):
        try:
            return [job.result() for job in jobs]
        # repro-lint: disable=no-silent-except -- fallthrough to the recorded rescue below
        except OSError:
            pass
        return fallback(jobs)
    """
)


# --------------------------------------------------------------------- #
# suppression-hygiene
# --------------------------------------------------------------------- #
# These two snippets contain *malformed* suppression comments.  The engine
# scans raw source lines for suppressions (it cannot know a line sits inside
# a string literal), so spelling them out verbatim here would make this
# fixture module itself flunk the tree-wide self-lint.  The placeholder is
# swapped for the real directive at runtime instead.
_DIRECTIVE = "repro-lint" + ":"

BAD_SUPPRESSION_NO_REASON = clean(
    """
    import numpy as np

    def make_stream():
        return np.random.default_rng(7)  # LINT-DIRECTIVE disable=no-raw-rng
    """
).replace("LINT-DIRECTIVE", _DIRECTIVE)

BAD_SUPPRESSION_UNKNOWN_RULE = clean(
    """
    def f():
        return 1  # LINT-DIRECTIVE disable=no-raw-rgn -- typo in the rule name
    """
).replace("LINT-DIRECTIVE", _DIRECTIVE)

GOOD_SUPPRESSION = SUPPRESSED_RAW_RNG
