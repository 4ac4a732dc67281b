"""``hot-path-hygiene`` — keep per-event Python out of the batched hot paths.

``process_batch`` exists so one numpy pass replaces thousands of per-event
Python iterations; the ~7.8x streaming and ~4-7x distributed speedups live
or die on it.  The recurring regression is a whole batch column quietly
flowing back into the scalar world — ``batch.elements.tolist()`` followed by
a per-row loop — which keeps results identical while erasing the speedup, so
no correctness test ever catches it.  This rule flags whole-column
``.tolist()`` conversions and per-row ``for`` loops over batch columns
inside ``process_batch`` methods and the hot modules.  Converting a
*filtered* selection (``batch.set_ids[survivors].tolist()``) is fine: the
vectorised prefilter has already done the per-event work.

The distributed reduce is hot end to end: machine sketches travel and fold
as rank-sorted columns, and the one graph of the reduce is built in bulk at
the root.  Its regression is the graph round trip — walking
``graph.edges()`` to rebuild columns, or re-assembling a graph with one
``add_edge`` per stored edge — so in a hot scope the rule also flags every
``.add_edge(`` call and every loop or comprehension over ``X.edges()``.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.lint.findings import Finding
from repro.lint.rules import Rule, RuleMeta, register_rule

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.lint.engine import LintContext

#: Functions whose bodies are batched hot paths wherever they live.
_HOT_FUNCTIONS = frozenset({"process_batch"})

#: Modules that are hot paths end to end: the packed coverage kernel, and
#: the distributed reduce (the coordinator's fold/admission and the columnar
#: sketch form it folds).
_HOT_MODULES = (
    "coverage/bitset.py",
    "distributed/coordinator.py",
    "core/sketch_columns.py",
)

#: EventBatch / columnar column attribute names.
_BATCH_COLUMNS = frozenset({"set_ids", "elements", "offsets", "members"})


def _in_hot_scope(ctx: "LintContext") -> bool:
    if ctx.in_module(*_HOT_MODULES):
        return True
    return any(
        getattr(fn, "name", None) in _HOT_FUNCTIONS for fn in ctx.enclosing_functions()
    )


def _bare_column(node: ast.AST) -> str | None:
    """``X.set_ids``-style whole-column reference (no subscript) or None."""
    if isinstance(node, ast.Attribute) and node.attr in _BATCH_COLUMNS:
        return node.attr
    return None


def _method_call(node: ast.AST, name: str) -> bool:
    """Whether ``node`` is a call of a method called ``name`` (any receiver)."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == name
    )


def _walks_edges(node: ast.AST) -> bool:
    """Whether a loop's iterable calls ``X.edges()`` (also inside ``enumerate``)."""
    return any(_method_call(sub, "edges") for sub in ast.walk(node))


@register_rule
class HotPathHygieneRule(Rule):
    """Flag whole-column scalar fallbacks inside batched hot paths."""

    meta = RuleMeta(
        name="hot-path-hygiene",
        summary=(
            "no whole-column .tolist(), per-row/per-edge loops or add_edge "
            "in process_batch, kernels or the distributed reduce"
        ),
        rationale=(
            "The batched engine's speedups depend on process_batch staying "
            "vectorised; converting a whole EventBatch column to Python "
            "objects (or looping over it row by row) keeps results identical "
            "while silently erasing the speedup, so only a static check "
            "catches it. Filtered selections like "
            "batch.set_ids[survivors].tolist() are allowed — the vectorised "
            "prefilter already did the per-event work. The distributed reduce "
            "keeps sketches as columns until one bulk graph build at the root, "
            "so add_edge calls and loops over graph.edges() are flagged there."
        ),
        example_bad="for e in batch.elements.tolist(): self._admit(e)",
        example_good="survivors = ranks < self._threshold\n"
        "for e in batch.elements[survivors].tolist(): self._admit(e)",
    )

    def visit_Call(self, node: ast.Call, ctx: "LintContext") -> Iterator[Finding]:
        if not _in_hot_scope(ctx):
            return
        if _method_call(node, "add_edge"):
            yield self.finding(
                ctx,
                node,
                "per-edge .add_edge() in a hot path rebuilds a graph one "
                "Python call per edge; keep the rows as columns and insert "
                "them at once with BipartiteGraph.from_columns/add_columns",
            )
            return
        if not _method_call(node, "tolist"):
            return
        column = _bare_column(node.func.value)
        if column is not None:
            yield self.finding(
                ctx,
                node,
                f"whole-column .{column}.tolist() in a batched hot path "
                "drops back to per-event Python; vectorise the test or "
                "subscript the survivors first",
            )

    def visit_For(self, node: ast.For, ctx: "LintContext") -> Iterator[Finding]:
        yield from self._loop(node, node.iter, ctx)

    def visit_comprehension(
        self, node: ast.comprehension, ctx: "LintContext"
    ) -> Iterator[Finding]:
        # A comprehension clause carries no position; report at its iterable.
        yield from self._loop(node.iter, node.iter, ctx)

    def _loop(
        self, node: ast.AST, iterable: ast.AST, ctx: "LintContext"
    ) -> Iterator[Finding]:
        if not _in_hot_scope(ctx):
            return
        column = _bare_column(iterable)
        if column is not None:
            yield self.finding(
                ctx,
                node,
                f"per-row for-loop over batch column .{column} in a batched "
                "hot path; iterate a vectorised mask/selection instead",
            )
        elif _walks_edges(iterable):
            yield self.finding(
                ctx,
                node,
                "per-edge loop over .edges() in a hot path; carry the "
                "sketch as columns instead of walking its graph",
            )
