"""Command-line interface.

``repro <command>`` (or ``python -m repro.cli <command>``) exposes the main
workflows without writing any Python:

* ``kcover`` — run the streaming k-cover sketch (and optionally the
  baselines) on a generated workload or an edge-list file.
* ``setcover`` — run the multi-pass streaming set cover.
* ``outliers`` — run set cover with λ outliers.
* ``generate`` — generate a synthetic workload and write it as an edge list
  (``--list`` prints the dataset registry instead).
* ``sketch`` — build the sketch of an edge-list file and report its size.
* ``distributed`` (alias ``run``) — run the two-round MapReduce-style
  k-cover; columnar ``--edges`` directories are sharded off the
  memory-mapped columns.
* ``serve`` — build the sketch once and drive a concurrent k-sweep query
  load against it (:mod:`repro.serve`), reporting p50/p99 latency, QPS and
  cache statistics.
* ``query`` — answer one coverage query from the cached sketch (repeat it
  with ``--repeat`` to see the warm-cache latency drop).
* ``list-solvers`` — print the solver registry with capability metadata.
* ``lint`` — run the repo-aware static-analysis pass (:mod:`repro.lint`)
  over files/directories; exits 0 when clean, 1 on findings, 2 on usage
  errors, so CI can gate on it.

Every command is a thin lookup into the :mod:`repro.api` solver registry and
the :mod:`repro.datasets` dataset registry — algorithms and workloads
registered by downstream code show up here automatically.  Commands print a
small aligned table and exit with a non-zero status on invalid input, so the
CLI is scriptable in pipelines.

Solver commands additionally take ``--trace FILE`` (Chrome trace-event JSON
of the run's spans, loadable in Perfetto / ``chrome://tracing``) and
``--metrics FILE`` (instrument snapshot; ``.prom``/``.txt`` renders the
Prometheus text exposition, anything else JSON).  Either flag switches the
:mod:`repro.obs` tracer on for the run; without them the instrumentation
stays on its no-op path.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro import obs
from repro.api import StreamSpec, iter_solvers, solve
from repro.coverage.bipartite import BipartiteGraph
from repro.coverage.bitset import COVERAGE_BACKENDS
from repro.coverage.io import open_columnar, read_edge_list, write_columnar, write_edge_list
from repro.datasets import get_dataset, iter_datasets, list_datasets
from repro.distributed.partition import PARTITION_STRATEGIES
from repro.lint import (
    iter_rule_metas,
    lint_paths,
    render_json,
    render_text,
    rule_choices,
)
from repro.parallel import executor_choices
from repro.serve.driver import SHARED_MEMORY_EXECUTORS
from repro.utils.tables import Table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and documentation)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Streaming coverage algorithms (Bateni-Esfandiari-Mirrokni, SPAA 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--edges", type=Path, default=None,
                       help="edge-list file (set<TAB>element) or columnar directory "
                            "(written by 'generate --format columnar'); overrides "
                            "--generator")
        p.add_argument("--generator", choices=list_datasets(), default="planted_kcover")
        p.add_argument("--num-sets", type=int, default=100)
        p.add_argument("--num-elements", type=int, default=5000)
        p.add_argument("--density", type=float, default=0.05)
        p.add_argument("--seed", type=int, default=0)

    def add_obs_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trace", type=Path, default=None,
                       help="write a Chrome trace-event JSON of the run's "
                            "spans to this file (open in Perfetto or "
                            "chrome://tracing); also enables tracing")
        p.add_argument("--metrics", type=Path, default=None,
                       help="write the metrics snapshot to this file "
                            "(.prom/.txt: Prometheus text exposition, "
                            "otherwise JSON); also enables tracing")

    def add_stream_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--batch-size", type=int, default=None,
                       help="drive the stream in columnar batches of this many "
                            "events (default: scalar events; results are identical)")
        p.add_argument("--coverage-backend", choices=COVERAGE_BACKENDS,
                       default=None,
                       help="packed-bitset kernel for the offline coverage "
                            "evaluations (greedy reference rows); default keeps "
                            "the set-based path")

    kcover = sub.add_parser("kcover", help="single-pass streaming k-cover (Algorithm 3)")
    add_instance_options(kcover)
    add_stream_options(kcover)
    add_obs_options(kcover)
    kcover.add_argument("--k", type=int, default=10)
    kcover.add_argument("--epsilon", type=float, default=0.2)
    kcover.add_argument("--scale", type=float, default=0.1,
                        help="edge-budget scale factor (see SketchParams.scaled)")
    kcover.add_argument("--baselines", action="store_true",
                        help="also run the Saha-Getoor and sieve-streaming baselines")

    setcover = sub.add_parser("setcover", help="multi-pass streaming set cover (Algorithm 6)")
    add_instance_options(setcover)
    add_stream_options(setcover)
    add_obs_options(setcover)
    setcover.add_argument("--k", type=int, default=10)
    setcover.add_argument("--epsilon", type=float, default=0.5)
    setcover.add_argument("--rounds", type=int, default=3)
    setcover.add_argument("--scale", type=float, default=0.1)

    outliers = sub.add_parser("outliers", help="set cover with λ outliers (Algorithm 5)")
    add_instance_options(outliers)
    add_stream_options(outliers)
    add_obs_options(outliers)
    outliers.add_argument("--k", type=int, default=10)
    outliers.add_argument("--epsilon", type=float, default=0.5)
    outliers.add_argument("--outlier-fraction", type=float, default=0.1)
    outliers.add_argument("--scale", type=float, default=0.1)

    generate = sub.add_parser("generate", help="generate a workload as an edge-list file")
    add_instance_options(generate)
    generate.add_argument("--k", type=int, default=10)
    generate.add_argument("--output", type=Path, default=None)
    generate.add_argument("--format", choices=("edge-list", "columnar"),
                          default="edge-list", dest="output_format",
                          help="'edge-list' writes set<TAB>element text; 'columnar' "
                               "writes a memory-mappable uint64 column directory")
    generate.add_argument("--list", action="store_true", dest="list_datasets",
                          help="list the registered dataset generators and exit")

    sketch = sub.add_parser("sketch", help="build the H_{<=n} sketch of an instance")
    add_instance_options(sketch)
    sketch.add_argument("--k", type=int, default=10)
    sketch.add_argument("--epsilon", type=float, default=0.2)
    sketch.add_argument("--scale", type=float, default=0.1)

    distributed = sub.add_parser(
        "distributed",
        aliases=["run"],
        help="two-round MapReduce-style k-cover via composable sketches "
             "(alias: run)",
    )
    add_instance_options(distributed)
    add_obs_options(distributed)
    distributed.add_argument("--k", type=int, default=10)
    distributed.add_argument("--epsilon", type=float, default=0.2)
    distributed.add_argument("--scale", type=float, default=0.1)
    distributed.add_argument("--machines", type=int, default=4,
                             help="number of simulated map workers")
    distributed.add_argument("--strategy", choices=PARTITION_STRATEGIES,
                             default="random",
                             help="edge sharding strategy; 'row_range' maps each "
                                  "worker over a contiguous slice (for columnar "
                                  "--edges directories, its own mmap'd row range)")
    distributed.add_argument("--coverage-backend", choices=COVERAGE_BACKENDS,
                             default=None,
                             help="packed-bitset kernel for the coordinator's "
                                  "round-2 greedy on the merged sketch")
    distributed.add_argument("--executor", choices=executor_choices(), default=None,
                             help="executor backend for the map phase: 'process' "
                                  "runs the workers on real cores (a columnar "
                                  "--edges directory ships only path + routing "
                                  "parameters to each child); 'auto' "
                                  "picks process when more than one CPU is "
                                  "usable; default keeps the serial loop "
                                  "(results are byte-identical either way)")
    distributed.add_argument("--workers", type=int, default=None,
                             help="pool-size cap for the parallel executors "
                                  "(default: the usable CPU count); given "
                                  "without --executor it implies "
                                  "--executor auto")

    serve = sub.add_parser(
        "serve", help="cached-sketch serving: one build, a concurrent query load"
    )
    add_instance_options(serve)
    add_stream_options(serve)
    add_obs_options(serve)
    serve.add_argument("--k", type=int, default=10,
                       help="queries sweep k over 1..k (distinct budgets build "
                            "their own cache entries; colliding ones share)")
    serve.add_argument("--epsilon", type=float, default=0.2)
    serve.add_argument("--scale", type=float, default=0.1)
    serve.add_argument("--queries", type=int, default=32,
                       help="number of queries in the driven load")
    serve.add_argument("--clients", type=int, default=8,
                       help="concurrent client threads")
    serve.add_argument("--executor", choices=SHARED_MEMORY_EXECUTORS, default="thread",
                       help="request executor; only shared-memory backends are "
                            "allowed (a process pool would duplicate the cache)")

    query = sub.add_parser(
        "query", help="answer one coverage query from the cached sketch"
    )
    add_instance_options(query)
    add_stream_options(query)
    add_obs_options(query)
    query.add_argument("--problem", choices=("k_cover", "set_cover", "set_cover_outliers"),
                       default="k_cover")
    query.add_argument("--k", type=int, default=10,
                       help="cardinality budget (k_cover queries)")
    query.add_argument("--outlier-fraction", type=float, default=0.1,
                       help="λ for set_cover_outliers queries")
    query.add_argument("--epsilon", type=float, default=0.2)
    query.add_argument("--scale", type=float, default=0.1)
    query.add_argument("--forbidden", default=None,
                       help="comma-separated set ids excluded from selection "
                            "(answered from the same cached sketch)")
    query.add_argument("--repeat", type=int, default=2,
                       help="ask the query this many times (first call builds, "
                            "repeats hit the cache)")

    sub.add_parser("list-solvers", help="list the registered solvers and their capabilities")

    lint = sub.add_parser(
        "lint", help="repo-aware static analysis of the determinism contracts"
    )
    lint.add_argument("paths", nargs="*", type=Path,
                      help="files and/or directories to lint (e.g. src benchmarks tests)")
    lint.add_argument("--rules", default=None,
                      help="comma-separated subset of rules to run, or 'all' "
                           "(default: every registered rule; see --list-rules)")
    lint.add_argument("--list-rules", action="store_true", dest="list_rules",
                      help="print the registered rules (generated from rule "
                           "metadata) and exit")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      dest="output_format",
                      help="'text' prints path:line:col findings; 'json' emits "
                           "the lossless report (re-readable via "
                           "repro.lint.report_from_json)")
    lint.add_argument("--output", type=Path, default=None,
                      help="also write the JSON report to this file (for CI "
                           "artifacts), regardless of --format")
    return parser


def _load_graph(args: argparse.Namespace) -> BipartiteGraph:
    """Build the input graph from a file or a registered generator."""
    if args.edges is not None:
        if args.edges.is_dir():
            return open_columnar(args.edges).to_graph()
        pairs = read_edge_list(args.edges)
        num_sets = max(int(s) for s, _ in pairs) + 1 if pairs else 1
        graph = BipartiteGraph(num_sets)
        for set_label, element_label in pairs:
            graph.add_edge(int(set_label), int(element_label))
        return graph
    return _generate_instance(args).graph


def _generate_instance(args: argparse.Namespace):
    return get_dataset(args.generator).build(
        args.num_sets, args.num_elements, k=args.k, density=args.density, seed=args.seed
    )


def _print(table: Table, stream) -> None:
    print(table.to_grid(), file=stream)


def _cmd_kcover(args: argparse.Namespace, out) -> int:
    graph = _load_graph(args)
    stream = StreamSpec(order="random", seed=args.seed, batch_size=args.batch_size)
    table = Table(["algorithm", "coverage", "fraction", "size", "passes", "space"])
    report = solve(
        graph, "kcover/sketch", problem_kind="k_cover", k=args.k, seed=args.seed,
        options={"epsilon": args.epsilon, "scale": args.scale}, stream=stream,
    )
    table.add_row(algorithm="sketch-kcover", coverage=report.coverage,
                  fraction=report.coverage_fraction, size=report.solution_size,
                  passes=report.passes, space=report.space_peak)
    if args.baselines:
        for name, solver, options in (
            ("saha-getoor", "kcover/saha-getoor", {}),
            ("sieve-streaming", "kcover/sieve", {"epsilon": 0.1}),
        ):
            rep = solve(graph, solver, problem_kind="k_cover", k=args.k,
                        seed=args.seed, options=options, stream=stream)
            table.add_row(algorithm=name, coverage=rep.coverage, fraction=rep.coverage_fraction,
                          size=rep.solution_size, passes=rep.passes, space=rep.space_peak)
    greedy = solve(graph, "offline/greedy", problem_kind="k_cover", k=args.k,
                   seed=args.seed, coverage_backend=args.coverage_backend)
    table.add_row(algorithm="offline-greedy", coverage=greedy.coverage,
                  fraction=greedy.coverage_fraction,
                  size=greedy.solution_size, passes="-", space=greedy.space_peak)
    _print(table, out)
    return 0


def _cmd_setcover(args: argparse.Namespace, out) -> int:
    graph = _load_graph(args)
    report = solve(
        graph, "setcover/sketch", problem_kind="set_cover", seed=args.seed,
        options={"epsilon": args.epsilon, "rounds": args.rounds,
                 "scale": args.scale, "max_guesses": 14},
        stream=StreamSpec(order="random", seed=args.seed, batch_size=args.batch_size),
    )
    greedy = solve(graph, "offline/greedy", problem_kind="set_cover", seed=args.seed,
                   options={"allow_partial": True},
                   coverage_backend=args.coverage_backend)
    table = Table(["algorithm", "cover_size", "fraction", "passes", "space"])
    table.add_row(algorithm="sketch-setcover", cover_size=report.solution_size,
                  fraction=report.coverage_fraction, passes=report.passes,
                  space=report.space_peak)
    table.add_row(algorithm="offline-greedy", cover_size=greedy.solution_size, fraction=1.0,
                  passes="-", space=greedy.space_peak)
    _print(table, out)
    return 0


def _cmd_outliers(args: argparse.Namespace, out) -> int:
    graph = _load_graph(args)
    report = solve(
        graph, "outliers/sketch", problem_kind="set_cover_outliers",
        outlier_fraction=args.outlier_fraction, seed=args.seed,
        options={"epsilon": args.epsilon, "scale": args.scale, "max_guesses": 16},
        stream=StreamSpec(order="random", seed=args.seed, batch_size=args.batch_size),
        coverage_backend=args.coverage_backend,
    )
    table = Table(["algorithm", "cover_size", "fraction", "target", "passes", "space"])
    table.add_row(algorithm="sketch-outliers", cover_size=report.solution_size,
                  fraction=report.coverage_fraction, target=1 - args.outlier_fraction,
                  passes=report.passes, space=report.space_peak)
    _print(table, out)
    return 0


def _cmd_generate(args: argparse.Namespace, out) -> int:
    if args.list_datasets:
        table = Table(["name", "summary"])
        for info in iter_datasets():
            table.add_row(**info.describe())
        _print(table, out)
        return 0
    if args.output is None:
        raise ValueError("generate requires --output (or --list to see the generators)")
    instance = _generate_instance(args)
    if args.output_format == "columnar":
        count = write_columnar(
            instance.graph.edges(),
            args.output,
            num_sets=instance.graph.num_sets,
        )
    else:
        count = write_edge_list(instance.graph.edges(), args.output)
    print(
        f"wrote {count} edges (n={instance.n}, m={instance.m}) to {args.output}",
        file=out,
    )
    return 0


def _cmd_sketch(args: argparse.Namespace, out) -> int:
    from repro.core import StreamingSketchBuilder
    from repro.core.params import SketchParams

    graph = _load_graph(args)
    params = SketchParams.scaled(
        graph.num_sets, max(1, graph.num_elements), args.k, args.epsilon, scale=args.scale
    )
    builder = StreamingSketchBuilder(params, seed=args.seed)
    builder.consume(graph.edges())
    sketch = builder.sketch()
    table = Table(["quantity", "value"])
    table.add_row(quantity="input edges", value=graph.num_edges)
    table.add_row(quantity="edge budget", value=params.edge_budget)
    table.add_row(quantity="degree cap", value=params.degree_cap)
    table.add_row(quantity="stored edges", value=sketch.num_edges)
    table.add_row(quantity="sampled elements", value=sketch.num_elements)
    table.add_row(quantity="threshold p*", value=sketch.threshold)
    table.add_row(quantity="estimated m", value=sketch.estimate_total_elements())
    _print(table, out)
    return 0


def _cmd_distributed(args: argparse.Namespace, out) -> int:
    # A columnar --edges directory is handed to solve() as the column view,
    # so the map phase shards the memory-mapped file instead of edge tuples.
    # (solve() still materialises the graph once to evaluate the solution's
    # exact coverage; only the sharding/sketching avoids it.)
    if args.edges is not None and args.edges.is_dir():
        problem = open_columnar(args.edges)
    else:
        problem = _load_graph(args)
    report = solve(
        problem, "kcover/distributed", problem_kind="k_cover", k=args.k,
        seed=args.seed, coverage_backend=args.coverage_backend,
        executor=args.executor, max_workers=args.workers,
        options={"epsilon": args.epsilon, "scale": args.scale,
                 "num_machines": args.machines, "strategy": args.strategy},
    )
    table = Table(["quantity", "value"])
    table.add_row(quantity="machines", value=report.extra["num_machines"])
    table.add_row(quantity="strategy", value=report.extra["strategy"])
    table.add_row(quantity="executor", value=report.extra["executor"])
    table.add_row(quantity="map_workers", value=report.extra["map_workers"])
    table.add_row(quantity="peak_resident_sketches",
                  value=report.extra["peak_resident_sketches"])
    table.add_row(quantity="merge_count", value=report.extra["merge_count"])
    table.add_row(quantity="rounds", value=report.passes)
    table.add_row(quantity="coverage", value=report.coverage)
    table.add_row(quantity="coverage_estimate", value=report.extra["coverage_estimate"])
    table.add_row(quantity="solution_size", value=report.solution_size)
    table.add_row(quantity="machine_load_min", value=report.extra["machine_load_min"])
    table.add_row(quantity="machine_load_mean", value=report.extra["machine_load_mean"])
    table.add_row(quantity="machine_load_max", value=report.extra["machine_load_max"])
    table.add_row(quantity="communication_edges", value=report.extra["communication_edges"])
    table.add_row(quantity="coordinator_edges", value=report.extra["coordinator_edges"])
    table.add_row(quantity="merged_threshold", value=report.extra["merged_threshold"])
    _print(table, out)
    return 0


def _cmd_lint(args: argparse.Namespace, out) -> int:
    if args.list_rules:
        if args.output_format == "json":
            import json

            print(json.dumps([meta.to_dict() for meta in iter_rule_metas()],
                             indent=2, sort_keys=True), file=out)
        else:
            table = Table(["rule", "summary"])
            for meta in iter_rule_metas():
                table.add_row(rule=meta.name, summary=meta.summary)
            _print(table, out)
        return 0
    if not args.paths:
        raise ValueError("lint requires at least one path (or --list-rules)")
    selected = None
    if args.rules is not None:
        selected = [name.strip() for name in args.rules.split(",") if name.strip()]
        unknown = sorted(set(selected) - set(rule_choices()) - {"all"})
        if unknown:
            raise ValueError(
                f"unknown rule(s) {unknown}; see 'repro lint --list-rules'"
            )
        if not selected:
            raise ValueError("--rules was given but names no rules")
    report = lint_paths(args.paths, rules=selected)
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(render_json(report) + "\n", encoding="utf-8")
    renderer = render_json if args.output_format == "json" else render_text
    print(renderer(report), file=out)
    return report.exit_code()


def _serve_engine(args: argparse.Namespace):
    from repro.serve import QueryEngine

    engine = QueryEngine(
        _load_graph(args),
        seed=args.seed,
        batch_size=args.batch_size,
        coverage_backend=args.coverage_backend,
    )
    # Remembered on the namespace so --metrics can fold the store's private
    # registry (hits/misses/builds/evictions) into the exported snapshot.
    args.serve_store = engine.store
    return engine


def _cmd_serve(args: argparse.Namespace, out) -> int:
    from repro.api import QuerySpec
    from repro.serve import drive_queries

    engine = _serve_engine(args)
    options = {"epsilon": args.epsilon, "scale": args.scale}
    specs = [
        QuerySpec(problem="k_cover", k=1 + (i % max(1, args.k)), options=options)
        for i in range(args.queries)
    ]
    # Warm the cache first so the driven numbers measure *serving*; the
    # build cost is reported separately as warm_build_seconds.
    warm = engine.query(specs[0])
    load = drive_queries(
        engine, specs, clients=args.clients, executor=args.executor
    )
    table = Table(["quantity", "value"])
    table.add_row(quantity="warm_build_seconds", value=round(warm.timings["solve"], 6))
    for key, value in load.as_dict().items():
        value = round(value, 6) if isinstance(value, float) else value
        table.add_row(quantity=key, value=value)
    for key, value in engine.store.stats().items():
        table.add_row(quantity=f"store_{key}", value=value)
    _print(table, out)
    return 0


def _cmd_query(args: argparse.Namespace, out) -> int:
    from repro.api import QuerySpec

    engine = _serve_engine(args)
    forbidden = ()
    if args.forbidden:
        forbidden = tuple(
            int(part) for part in args.forbidden.split(",") if part.strip()
        )
    options = {"epsilon": args.epsilon, "scale": args.scale}
    if args.problem == "set_cover":
        options["max_guesses"] = 14
    elif args.problem == "set_cover_outliers":
        options["max_guesses"] = 16
    spec = QuerySpec(
        problem=args.problem,
        k=args.k if args.problem == "k_cover" else None,
        outlier_fraction=(
            args.outlier_fraction if args.problem == "set_cover_outliers" else None
        ),
        forbidden=forbidden,
        options=options,
    )
    table = Table(["call", "cache_hit", "coverage", "fraction", "size", "solve_seconds"])
    for call in range(max(1, args.repeat)):
        report = engine.query(spec)
        table.add_row(call=call, cache_hit=report.extra["cache_hit"],
                      coverage=report.coverage, fraction=report.coverage_fraction,
                      size=report.solution_size,
                      solve_seconds=round(report.timings["solve"], 6))
    _print(table, out)
    return 0


def _cmd_list_solvers(args: argparse.Namespace, out) -> int:
    table = Table(["name", "kind", "problems", "arrival", "passes", "space", "summary"])
    for info in iter_solvers():
        table.add_row(**info.capabilities())
    _print(table, out)
    return 0


_COMMANDS = {
    "kcover": _cmd_kcover,
    "setcover": _cmd_setcover,
    "outliers": _cmd_outliers,
    "generate": _cmd_generate,
    "sketch": _cmd_sketch,
    "distributed": _cmd_distributed,
    "run": _cmd_distributed,
    "serve": _cmd_serve,
    "query": _cmd_query,
    "list-solvers": _cmd_list_solvers,
    "lint": _cmd_lint,
}


def _dispatch_with_obs(args: argparse.Namespace, out) -> int:
    """Run one command, exporting a trace and/or metrics when asked.

    Either flag turns the tracer on for the run; the global metrics registry
    is reset first so the artifacts describe exactly this invocation.
    """
    command = _COMMANDS[args.command]
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    if trace_path is None and metrics_path is None:
        return command(args, out)
    obs.global_metrics().reset()
    tracer = obs.Tracer()
    with obs.tracing(tracer):
        code = command(args, out)
    if trace_path is not None:
        obs.write_trace(trace_path, tracer.records())
        print(f"trace written to {trace_path}", file=out)
    if metrics_path is not None:
        store = getattr(args, "serve_store", None)
        extra = (store.metrics,) if store is not None else ()
        obs.write_metrics(
            metrics_path, obs.global_metrics().snapshot(extra=extra)
        )
        print(f"metrics written to {metrics_path}", file=out)
    return code


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """Entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch_with_obs(args, out)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
