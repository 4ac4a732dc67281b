"""``picklable-jobs`` — executor jobs must survive a process boundary.

The :mod:`repro.parallel` runtime promises byte-identical results across the
serial, thread and process backends.  That only holds if every callable
handed to a :class:`~repro.parallel.ParallelMapper` (or a pool's ``submit``)
is a *module-level* function the process backend can pickle by reference —
lambdas, closures and bound methods work on the serial/thread backends and
then explode (or silently force the sandbox fallback) the first time someone
flips ``--executor process``.  Likewise the job dataclasses shipped to map
workers must carry only plain data: an open file, an mmap view or a live
stream object in a job field pickles either not at all or as a deep copy of
the data it was supposed to avoid shipping.
"""

from __future__ import annotations

import ast
import re
from typing import TYPE_CHECKING, Iterator

from repro.lint.findings import Finding
from repro.lint.rules import Rule, RuleMeta, attribute_chain, register_rule

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.lint.engine import LintContext

#: Receiver names (last attribute-chain part) treated as executor objects
#: for ``.map(fn, jobs)`` calls.
_MAPPER_RECEIVERS = re.compile(r"(mapper|pool|executor)s?$", re.IGNORECASE)

#: Constructor/helper call names whose result is an executor object.
_MAPPER_FACTORIES = frozenset({"ParallelMapper", "as_mapper"})

#: Type names that must never appear in a picklable job dataclass field:
#: open handles, mmap views and live stream/column objects either fail to
#: pickle or pickle as a copy of the data the job exists to avoid shipping.
_UNPICKLABLE_FIELD_TYPES = re.compile(
    r"\b(IO|TextIO|BinaryIO|BufferedReader|BufferedWriter|FileIO|mmap|"
    r"memoryview|socket|EdgeStream|SetStream|ColumnarEdges|ColumnarSets)\b"
)


def _is_executor_map(node: ast.Call) -> bool:
    """Whether ``node`` hands its first argument to an executor fan-out."""
    func = node.func
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr == "submit":
        return True
    if func.attr != "map":
        return False
    receiver = func.value
    chain = attribute_chain(receiver)
    if chain is not None:
        return bool(_MAPPER_RECEIVERS.search(chain[-1]))
    if isinstance(receiver, ast.Call):
        inner = attribute_chain(receiver.func)
        return inner is not None and inner[-1] in _MAPPER_FACTORIES
    return False


def _local_function_names(ctx: "LintContext") -> set[str]:
    """Names of functions defined *inside* the enclosing function stack."""
    names: set[str] = set()
    for outer in ctx.enclosing_functions():
        for inner in ast.walk(outer):
            if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)) and inner is not outer:
                names.add(inner.name)
    return names


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        chain = attribute_chain(
            decorator.func if isinstance(decorator, ast.Call) else decorator
        )
        if chain is not None and chain[-1] == "dataclass":
            return True
    return False


@register_rule
class PicklableJobsRule(Rule):
    """Flag executor callables and job fields a process pool cannot pickle."""

    meta = RuleMeta(
        name="picklable-jobs",
        summary="executor callables must be module-level; job fields plain data",
        rationale=(
            "ParallelMapper promises byte-identical results across serial, "
            "thread and process backends. Lambdas, closures and bound "
            "methods pickle by value or not at all, so they work under "
            "serial/thread and break the first process run; job dataclasses "
            "carrying open files, mmap views or live stream objects defeat "
            "the ship-nothing contract of the columnar map jobs."
        ),
        example_bad="mapper.map(lambda job: job.run(), jobs)",
        example_good="mapper.map(execute_map_job, jobs)  # top-level function",
    )

    def visit_Call(self, node: ast.Call, ctx: "LintContext") -> Iterator[Finding]:
        if not _is_executor_map(node) or not node.args:
            return
        callable_arg = node.args[0]
        if isinstance(callable_arg, ast.Lambda):
            yield self.finding(
                ctx,
                callable_arg,
                "lambda passed to an executor fan-out; process pools pickle "
                "callables by reference, so hand over a module-level function",
            )
            return
        if isinstance(callable_arg, ast.Name):
            if callable_arg.id in _local_function_names(ctx):
                yield self.finding(
                    ctx,
                    callable_arg,
                    f"'{callable_arg.id}' is defined inside the enclosing "
                    "function (a closure); move it to module level so every "
                    "executor backend can pickle it",
                )
            return
        chain = attribute_chain(callable_arg)
        if chain is not None and chain[0] in ("self", "cls") and len(chain) >= 2:
            yield self.finding(
                ctx,
                callable_arg,
                f"bound method '{'.'.join(chain)}' passed to an executor "
                "fan-out; bound methods drag their instance through pickle — "
                "use a module-level function taking the job as data",
            )

    def visit_ClassDef(self, node: ast.ClassDef, ctx: "LintContext") -> Iterator[Finding]:
        if "distributed/" not in ctx.display_path:
            return
        if not node.name.endswith("Job") or not _is_dataclass(node):
            return
        for statement in node.body:
            if not isinstance(statement, ast.AnnAssign):
                continue
            annotation = ast.unparse(statement.annotation)
            match = _UNPICKLABLE_FIELD_TYPES.search(annotation)
            if match:
                yield self.finding(
                    ctx,
                    statement,
                    f"job dataclass {node.name} field "
                    f"{ast.unparse(statement.target)}: {annotation} — "
                    f"{match.group(1)} does not pickle as plain data; carry a "
                    "path/bounds description and re-open in the worker",
                )
