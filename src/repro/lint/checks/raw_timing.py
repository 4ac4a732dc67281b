"""``raw-timing`` — library timing reads flow through :mod:`repro.obs.clock`.

The observability layer makes latency histograms, span durations and report
timings *testable*: installing a :class:`repro.obs.clock.FakeClock` turns
every duration in the library deterministic.  That only works if library
code reads clocks through :func:`repro.obs.clock.perf_counter` /
:func:`repro.obs.clock.wall_time` — a direct ``time.perf_counter()`` (or
``time.time()``, ``time.monotonic()``, ...) creates a timing source the
fake cannot intercept, and a "deterministic" test silently measures real
wall-clock again.

Scope: modules under ``src/repro/`` only.  Benchmarks and tests measure the
real world on purpose and may call :mod:`time` freely; the one legitimate
real read inside the library (the ``repro.obs.clock`` indirection itself)
carries justified suppressions.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import TYPE_CHECKING, Iterator

from repro.lint.findings import Finding
from repro.lint.rules import Rule, RuleMeta, attribute_chain, register_rule

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.lint.engine import LintContext

#: ``time``-module readers that bypass the clock indirection.  ``sleep``,
#: ``strftime`` etc. stay legal — only *reads used as measurements* drift.
_BANNED_READERS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }
)


def module_name_for(display_path: str) -> str:
    """Dotted module name for a display path.

    Anything after the last ``src`` component is the import root (the layout
    this repo and the synthetic test trees share); paths without a ``src``
    component (``tests/...``, ``benchmarks/...``) use the path as-is.
    """
    parts = [p for p in PurePosixPath(display_path).parts if p not in ("/", "\\")]
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src") :]
    return ".".join(parts).removesuffix(".py")


def _in_library(ctx: "LintContext") -> bool:
    """Whether the module under inspection is repro library code."""
    module = module_name_for(ctx.display_path)
    return module == "repro" or module.startswith("repro.")


@register_rule
class RawTimingRule(Rule):
    """Flag direct :mod:`time` reads in library code."""

    meta = RuleMeta(
        name="raw-timing",
        summary="library timing reads must go through repro.obs.clock",
        rationale=(
            "Tests fake time by swapping the repro.obs.clock sources; a "
            "direct time.perf_counter()/time.time() read in src/repro "
            "escapes the fake, so span durations, latency histograms and "
            "report timings stop being deterministic under test. Benchmarks "
            "and tests measure real time on purpose and are exempt."
        ),
        example_bad="start = time.perf_counter()",
        example_good="start = clock.perf_counter()  # from repro.obs import clock",
    )

    def visit_Call(self, node: ast.Call, ctx: "LintContext") -> Iterator[Finding]:
        if not _in_library(ctx):
            return
        chain = attribute_chain(node.func)
        if (
            chain is not None
            and len(chain) == 2
            and chain[0] == "time"
            and chain[1] in _BANNED_READERS
        ):
            yield self.finding(
                ctx,
                node,
                f"time.{chain[1]}() reads the clock behind repro.obs.clock's "
                "back; use clock.perf_counter()/clock.wall_time() so tests "
                "can fake time",
            )

    def visit_ImportFrom(
        self, node: ast.ImportFrom, ctx: "LintContext"
    ) -> Iterator[Finding]:
        if not _in_library(ctx):
            return
        if node.module != "time":
            return
        imported = sorted(
            alias.name for alias in node.names if alias.name in _BANNED_READERS
        )
        if imported:
            yield self.finding(
                ctx,
                node,
                f"importing {', '.join(imported)} from the time module hides "
                "clock reads from repro.obs.clock; import the clock module "
                "instead",
            )
