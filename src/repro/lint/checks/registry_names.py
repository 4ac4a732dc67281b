"""``registry-literal-names`` — registry keys are greppable string literals.

Every registry in the library (solvers, datasets, lint rules) is wired into
user-facing choice lists: CLI
``choices=``, spec validation, ``list-*`` commands and the docs.  A name
computed at registration time (``register_solver(PREFIX + name)``) cannot be
grepped, silently diverges from the choices plumbing, and makes
``did-you-mean`` hints useless.  This rule requires the name handed to a
``register_*`` call to be a non-empty string literal without whitespace.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.lint.findings import Finding
from repro.lint.rules import Rule, RuleMeta, attribute_chain, register_rule

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.lint.engine import LintContext

#: register_*(name, ...) style — first positional argument is the key.
#: (register_rule is absent on purpose: it takes a class, the key lives in
#: the class's RuleMeta which validates itself at definition time.)
_NAME_FIRST = frozenset({"register_solver", "register_dataset"})


def _literal_name_problem(node: ast.expr) -> str | None:
    """Why ``node`` is not an acceptable registry-name literal (or None)."""
    if not isinstance(node, ast.Constant) or not isinstance(node.value, str):
        return "must be a string literal (a computed name cannot be grepped " \
               "or cross-checked against the choices plumbing)"
    if not node.value:
        return "must not be empty"
    if any(ch.isspace() for ch in node.value):
        return "must not contain whitespace (it feeds CLI choices lists)"
    return None


@register_rule
class RegistryLiteralNamesRule(Rule):
    """Flag computed or malformed names at registry registration sites."""

    meta = RuleMeta(
        name="registry-literal-names",
        summary="names passed to register_* must be clean string literals",
        rationale=(
            "Registry keys feed CLI choices, spec validation and "
            "did-you-mean hints; a name computed at registration time "
            "cannot be grepped and silently diverges from that plumbing."
        ),
        example_bad='register_solver(PREFIX + "/greedy", ...)',
        example_good='register_solver("offline/greedy", ...)',
    )

    def visit_Call(self, node: ast.Call, ctx: "LintContext") -> Iterator[Finding]:
        chain = attribute_chain(node.func)
        if chain is None:
            return
        callee = chain[-1]
        if callee not in _NAME_FIRST or not node.args:
            return
        problem = _literal_name_problem(node.args[0])
        if problem is not None:
            yield self.finding(ctx, node.args[0], f"name passed to {callee} {problem}")
