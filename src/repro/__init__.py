"""repro — reproduction of *Almost Optimal Streaming Algorithms for Coverage Problems*.

Bateni, Esfandiari, Mirrokni (SPAA 2017, arXiv:1610.08096).

The package is organised as:

* :mod:`repro.coverage` — set systems, bipartite graphs, coverage evaluation.
* :mod:`repro.streaming` — edge/set-arrival streams, space metering, passes.
* :mod:`repro.core` — the paper's contribution: the ``H_{<=n}`` sketch and
  the streaming algorithms for k-cover, set cover with outliers and set
  cover, plus the oracle-hardness and lower-bound constructions.
* :mod:`repro.offline` — greedy / exact / local-search reference algorithms.
* :mod:`repro.baselines` — prior streaming algorithms from Table 1.
* :mod:`repro.datasets` — synthetic workload generators (with a registry).
* :mod:`repro.analysis` — metrics, experiment runner, report rendering.
* :mod:`repro.api` — the solver registry, run specs and the ``solve()``
  facade: the canonical way to run anything in the library.

Quickstart
----------
>>> import repro
>>> from repro import datasets
>>> instance = datasets.planted_kcover_instance(100, 2000, k=5, seed=1)
>>> report = repro.solve(instance, "kcover/sketch", seed=1)
>>> report.solution_size
5

Any registered solver runs through the same call — compare with a baseline
and the offline reference by name (see :func:`repro.list_solvers`):

>>> session = repro.Session(instance, seed=1)
>>> _ = session.compare(["kcover/sketch", "kcover/sieve", "offline/greedy"])
>>> len(session.suite)
3
"""

from repro import (
    analysis,
    baselines,
    coverage,
    core,
    datasets,
    distributed,
    offline,
    parallel,
    streaming,
    utils,
)
from repro import api
from repro.core import (
    CoverageSketch,
    SketchParams,
    StreamingKCover,
    StreamingSetCover,
    StreamingSetCoverOutliers,
    StreamingSketchBuilder,
    build_h_leq_n,
)
from repro.coverage import BipartiteGraph, CoverageInstance, SetSystem
from repro.errors import (
    CorruptInputError,
    InfeasibleError,
    InvalidInstanceError,
    PassBudgetExceeded,
    ReproError,
    SpaceBudgetExceeded,
    SpecError,
    StreamExhausted,
    UnknownDatasetError,
    UnknownSolverError,
)
from repro.offline import greedy_k_cover, greedy_set_cover
from repro.streaming import EdgeStream, SetStream, SpaceMeter, StreamingRunner
from repro.api import (
    ProblemSpec,
    RunSpec,
    Session,
    SolverSpec,
    StreamSpec,
    list_solvers,
    register_solver,
    solve,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # subpackages
    "analysis",
    "api",
    "baselines",
    "coverage",
    "core",
    "datasets",
    "distributed",
    "offline",
    "parallel",
    "streaming",
    "utils",
    # the solve() facade and its specs
    "solve",
    "Session",
    "list_solvers",
    "register_solver",
    "ProblemSpec",
    "SolverSpec",
    "StreamSpec",
    "RunSpec",
    # most-used classes re-exported at top level
    "BipartiteGraph",
    "CoverageInstance",
    "SetSystem",
    "CoverageSketch",
    "SketchParams",
    "StreamingSketchBuilder",
    "build_h_leq_n",
    "StreamingKCover",
    "StreamingSetCover",
    "StreamingSetCoverOutliers",
    "EdgeStream",
    "SetStream",
    "SpaceMeter",
    "StreamingRunner",
    "greedy_k_cover",
    "greedy_set_cover",
    # errors
    "ReproError",
    "InvalidInstanceError",
    "CorruptInputError",
    "SpaceBudgetExceeded",
    "PassBudgetExceeded",
    "InfeasibleError",
    "StreamExhausted",
    "SpecError",
    "UnknownSolverError",
    "UnknownDatasetError",
]
