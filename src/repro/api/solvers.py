"""Registry entries for every solver family shipped with the library.

Importing this module (which :mod:`repro.api` does) populates the solver
registry with the paper's algorithms (``kcover/sketch``, ``setcover/sketch``,
``outliers/sketch``, the ensemble and the distributed runner), the Table 1
prior-art baselines, and the offline references.

Builders forward ``seed`` from the problem context but let explicit options
win, so a spec can pin any constructor argument.  The sketch builders accept
``edge_budget`` / ``degree_cap`` options and turn them into an explicit
:class:`SketchParams`, keeping specs JSON-serializable even for ablations
that pin the budgets directly.
"""

from __future__ import annotations

from typing import Any

from repro.api.registry import OfflineOutcome, ProblemContext, register_solver
from repro.baselines import (
    DemaineSetCover,
    HarPeledSetCover,
    McGregorVuKCover,
    SahaGetoorKCover,
    SieveStreamingKCover,
    ThresholdPartialSetCover,
)
from repro.core import (
    EnsembleKCover,
    StreamingKCover,
    StreamingSetCover,
    StreamingSetCoverOutliers,
)
from repro.core.params import SketchParams
from repro.coverage.bitset import LAYOUT
from repro.distributed import DistributedKCover
from repro.errors import SpecError
from repro.offline.greedy import greedy_k_cover, greedy_partial_cover, greedy_set_cover
from repro.offline.local_search import local_search_k_cover

__all__: list[str] = []


def _seeded(ctx: ProblemContext, options: dict[str, Any]) -> dict[str, Any]:
    """Constructor kwargs: the context seed, overridable by explicit options."""
    return {"seed": ctx.seed, **options}


def _explicit_params(ctx: ProblemContext, kwargs: dict[str, Any]) -> dict[str, Any]:
    """Turn ``edge_budget`` / ``degree_cap`` options into explicit SketchParams."""
    edge_budget = kwargs.pop("edge_budget", None)
    degree_cap = kwargs.pop("degree_cap", None)
    if edge_budget is not None:
        kwargs["params"] = SketchParams.explicit(
            ctx.n,
            ctx.m,
            ctx.k,
            kwargs.get("epsilon", 0.2),
            edge_budget=edge_budget,
            degree_cap=degree_cap,
        )
    elif degree_cap is not None:
        raise SpecError("degree_cap requires edge_budget to pin explicit SketchParams")
    return kwargs


def _require_outliers(ctx: ProblemContext, name: str) -> float:
    if not ctx.outlier_fraction:
        raise SpecError(
            f"{name} solves set cover with outliers; pass outlier_fraction "
            "(or an instance posing set_cover_outliers)"
        )
    return ctx.outlier_fraction


# --------------------------------------------------------------------- #
# k-cover: the paper's sketch, the ensemble, and the Table 1 baselines
# --------------------------------------------------------------------- #
@register_solver(
    "kcover/sketch",
    kind="streaming",
    problems=("k_cover",),
    arrival="edge",
    passes="1",
    space="O~(n)",
    summary="Algorithm 3: H_{<=n} sketch + offline greedy (1-1/e-eps)",
)
def _kcover_sketch(ctx: ProblemContext, **options: Any) -> StreamingKCover:
    kwargs = _explicit_params(ctx, _seeded(ctx, options))
    kwargs.setdefault("coverage_backend", ctx.coverage_backend)
    return StreamingKCover(ctx.n, ctx.m, k=ctx.k, **kwargs)


@register_solver(
    "kcover/ensemble",
    kind="streaming",
    problems=("k_cover",),
    arrival="edge",
    passes="1",
    space="R * O~(n)",
    summary="Best-of-R independent sketch replicas (Section 1.3.2)",
)
def _kcover_ensemble(ctx: ProblemContext, **options: Any) -> EnsembleKCover:
    kwargs = _explicit_params(ctx, _seeded(ctx, options))
    kwargs.setdefault("coverage_backend", ctx.coverage_backend)
    kwargs.setdefault("executor", ctx.executor)
    kwargs.setdefault("max_workers", ctx.max_workers)
    return EnsembleKCover(ctx.n, ctx.m, k=ctx.k, **kwargs)


@register_solver(
    "kcover/saha-getoor",
    kind="streaming",
    problems=("k_cover",),
    arrival="set",
    passes="1",
    space="O~(m)",
    summary="Saha-Getoor swap streaming (1/4 approximation)",
)
def _kcover_saha_getoor(ctx: ProblemContext, **options: Any) -> SahaGetoorKCover:
    return SahaGetoorKCover(k=ctx.k, **options)


@register_solver(
    "kcover/sieve",
    kind="streaming",
    problems=("k_cover",),
    arrival="set",
    passes="1",
    space="O~(n+m)",
    summary="Sieve-streaming (1/2 - eps approximation)",
)
def _kcover_sieve(ctx: ProblemContext, **options: Any) -> SieveStreamingKCover:
    return SieveStreamingKCover(k=ctx.k, **options)


@register_solver(
    "kcover/mcgregor-vu",
    kind="streaming",
    problems=("k_cover",),
    arrival="edge",
    passes="1",
    space="O~(n)",
    summary="McGregor-Vu element sampling (1-1/e-eps)",
)
def _kcover_mcgregor_vu(ctx: ProblemContext, **options: Any) -> McGregorVuKCover:
    return McGregorVuKCover(ctx.n, ctx.m, k=ctx.k, **_seeded(ctx, options))


# --------------------------------------------------------------------- #
# set cover
# --------------------------------------------------------------------- #
@register_solver(
    "setcover/sketch",
    kind="streaming",
    problems=("set_cover",),
    arrival="edge",
    passes="r",
    space="O~(n m^O(1/r) + m)",
    summary="Algorithm 6: r-round sketch set cover ((1+eps) log m)",
)
def _setcover_sketch(ctx: ProblemContext, **options: Any) -> StreamingSetCover:
    kwargs = _seeded(ctx, options)
    kwargs.setdefault("coverage_backend", ctx.coverage_backend)
    return StreamingSetCover(ctx.n, ctx.m, **kwargs)


@register_solver(
    "setcover/demaine",
    kind="streaming",
    problems=("set_cover",),
    arrival="set",
    passes="4r",
    space="O~(n m^{1/r} + m)",
    summary="Demaine et al. threshold set cover (4r log m)",
)
def _setcover_demaine(ctx: ProblemContext, **options: Any) -> DemaineSetCover:
    return DemaineSetCover(ctx.m, **options)


@register_solver(
    "setcover/harpeled",
    kind="streaming",
    problems=("set_cover",),
    arrival="set",
    passes="p",
    space="O~(n m^O(1/p) + m)",
    summary="Har-Peled et al. multi-pass set cover (O(p log m))",
)
def _setcover_harpeled(ctx: ProblemContext, **options: Any) -> HarPeledSetCover:
    return HarPeledSetCover(ctx.m, **options)


# --------------------------------------------------------------------- #
# set cover with outliers
# --------------------------------------------------------------------- #
@register_solver(
    "outliers/sketch",
    kind="streaming",
    problems=("set_cover_outliers",),
    arrival="edge",
    passes="1",
    space="O~_lambda(n)",
    summary="Algorithm 5: single-pass set cover with lambda outliers",
)
def _outliers_sketch(ctx: ProblemContext, **options: Any) -> StreamingSetCoverOutliers:
    outlier_fraction = _require_outliers(ctx, "outliers/sketch")
    kwargs = _seeded(ctx, options)
    kwargs.setdefault("coverage_backend", ctx.coverage_backend)
    return StreamingSetCoverOutliers(
        ctx.n, ctx.m, outlier_fraction=outlier_fraction, **kwargs
    )


@register_solver(
    "outliers/emek-rosen",
    kind="streaming",
    problems=("set_cover_outliers",),
    arrival="set",
    passes="p",
    space="O~(m)",
    summary="Threshold partial set cover baseline (Emek-Rosen style)",
)
def _outliers_emek_rosen(ctx: ProblemContext, **options: Any) -> ThresholdPartialSetCover:
    outlier_fraction = _require_outliers(ctx, "outliers/emek-rosen")
    return ThresholdPartialSetCover(ctx.m, outlier_fraction=outlier_fraction, **options)


# --------------------------------------------------------------------- #
# offline references
# --------------------------------------------------------------------- #
@register_solver(
    "offline/greedy",
    kind="offline",
    problems=("k_cover", "set_cover", "set_cover_outliers"),
    passes="offline",
    space="O(input)",
    summary="Offline lazy greedy (1-1/e for k-cover, H_m for set cover)",
)
def _offline_greedy(ctx: ProblemContext, **options: Any) -> OfflineOutcome:
    kernel = ctx.kernel()
    if ctx.problem == "k_cover":
        result = greedy_k_cover(ctx.graph, ctx.k, kernel=kernel, **options)
    elif ctx.problem == "set_cover":
        allow_partial = options.pop("allow_partial", True)
        result = greedy_set_cover(
            ctx.graph, allow_partial=allow_partial, kernel=kernel, **options
        )
    else:
        target = 1.0 - _require_outliers(ctx, "offline/greedy")
        result = greedy_partial_cover(ctx.graph, target, kernel=kernel, **options)
    extra: dict[str, Any] = {"evaluations": result.evaluations}
    if kernel is not None:
        extra["coverage_backend"] = LAYOUT
    return OfflineOutcome(
        algorithm="offline-greedy",
        solution=list(result.selected),
        extra=extra,
    )


@register_solver(
    "offline/local-search",
    kind="offline",
    problems=("k_cover",),
    passes="offline",
    space="O(input)",
    summary="Single-swap local search for k-cover",
)
def _offline_local_search(ctx: ProblemContext, **options: Any) -> OfflineOutcome:
    kernel = ctx.kernel()
    result = local_search_k_cover(ctx.graph, ctx.k, kernel=kernel, **_seeded(ctx, options))
    extra: dict[str, Any] = {
        "iterations": result.iterations,
        "improved_from": result.improved_from,
    }
    if kernel is not None:
        extra["coverage_backend"] = LAYOUT
    return OfflineOutcome(
        algorithm="offline-local-search",
        solution=list(result.selected),
        extra=extra,
    )


# --------------------------------------------------------------------- #
# distributed
# --------------------------------------------------------------------- #
@register_solver(
    "kcover/distributed",
    kind="distributed",
    problems=("k_cover",),
    arrival="edge",
    passes="2 rounds",
    space="O~(n) per machine",
    summary="Two-round MapReduce k-cover via composable sketches",
)
def _kcover_distributed(ctx: ProblemContext, **options: Any) -> tuple[str, Any]:
    kwargs = _explicit_params(ctx, _seeded(ctx, options))
    kwargs.setdefault("coverage_backend", ctx.coverage_backend)
    kwargs.setdefault("executor", ctx.executor)
    kwargs.setdefault("max_workers", ctx.max_workers)
    algorithm = DistributedKCover(ctx.n, ctx.m, k=ctx.k, **kwargs)
    if ctx.columns is not None:
        # Column-backed problem: the map phase shards the memory-mapped
        # columns directly (row slices / batched routing), never touching
        # the materialised evaluation graph.
        return "distributed-sketch-kcover", algorithm.run_from_columnar(ctx.columns)
    return "distributed-sketch-kcover", algorithm.run(ctx.graph.edges())
