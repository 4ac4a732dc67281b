"""The lint rule framework: base class, metadata and registry.

A rule is a class deriving from :class:`Rule` with a :class:`RuleMeta`
describing it (name, one-line summary, the contract it defends, a bad and a
good example) and ``visit_<NodeType>`` methods the engine dispatches AST
nodes to — the same visitor convention as :class:`ast.NodeVisitor`, except
that one shared walk serves every rule and each visit yields
:class:`~repro.lint.findings.Finding` objects instead of mutating state.

Rules register by name in a :class:`~repro.utils.registry.NamedRegistry`
exactly like the solver and dataset registries, so downstream code can
plug its own contracts into ``repro lint`` with :func:`register_rule` and
have them show up in ``--rules`` / ``--list-rules`` automatically.  The
registry stores rule *classes*; every lint run instantiates fresh
instances, so rules may keep per-module scratch state between
``begin_module`` and ``finish_module`` without leaking across runs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.errors import SpecError
from repro.lint.findings import Finding
from repro.utils.registry import NamedRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.lint.engine import LintContext
    from repro.lint.project import ProjectIndex

__all__ = [
    "RuleMeta",
    "Rule",
    "ProjectRule",
    "register_rule",
    "unregister_rule",
    "get_rule",
    "list_rules",
    "iter_rule_metas",
    "rule_choices",
    "attribute_chain",
]


@dataclass(frozen=True)
class RuleMeta:
    """Everything user-facing about a rule, in one place.

    ``--list-rules``, the README rule table and the JSON metadata dump all
    render from this object, so the docs cannot drift from the code.
    """

    name: str
    summary: str
    rationale: str
    example_bad: str
    example_good: str

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name or " " in self.name:
            raise SpecError(
                f"rule name must be a non-empty string without spaces, got {self.name!r}"
            )
        for label in ("summary", "rationale", "example_bad", "example_good"):
            value = getattr(self, label)
            if not isinstance(value, str) or not value.strip():
                raise SpecError(f"rule {self.name!r} needs a non-empty {label}")

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form for the JSON ``--list-rules`` output."""
        return {
            "name": self.name,
            "summary": self.summary,
            "rationale": self.rationale,
            "example_bad": self.example_bad,
            "example_good": self.example_good,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RuleMeta":
        """Inverse of :meth:`to_dict` (used by tooling consuming the JSON dump)."""
        known = {"name", "summary", "rationale", "example_bad", "example_good"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(f"RuleMeta.from_dict got unknown field(s) {unknown}")
        return cls(**data)


class Rule:
    """Base class for lint rules.

    Subclasses set ``meta`` and implement any of:

    * ``visit_<NodeType>(node, ctx)`` — called for every AST node of that
      type during the module walk; yield/return an iterable of findings
      (or ``None``).
    * :meth:`begin_module` — reset per-module scratch state.
    * :meth:`finish_module` — emit findings that need the whole module
      (e.g. cross-referencing two method bodies).

    Helpers on the base class (:meth:`finding`) keep rule code short.
    """

    meta: RuleMeta

    #: Which phase of the engine runs this rule: ``"file"`` rules see one
    #: module at a time through the shared AST walk; ``"project"`` rules
    #: (see :class:`ProjectRule`) run once, after every file, over the
    #: assembled :class:`~repro.lint.project.ProjectIndex`.
    scope: str = "file"

    def begin_module(self, ctx: "LintContext") -> None:
        """Hook: called before the walk of each module."""

    def finish_module(self, ctx: "LintContext") -> Iterable[Finding]:
        """Hook: called after the walk of each module."""
        return ()

    def finding(
        self, ctx: "LintContext", node: ast.AST | int, message: str, col: int = 0
    ) -> Finding:
        """Build a finding at ``node`` (or at an explicit line number)."""
        if isinstance(node, ast.AST):
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
        else:
            line = node
        return Finding(
            path=ctx.display_path, line=line, col=col, rule=self.meta.name, message=message
        )

    def visitor_methods(self) -> dict[str, Callable[..., Any]]:
        """Map of AST node type name -> bound visitor method."""
        methods: dict[str, Callable[..., Any]] = {}
        for attr in dir(self):
            if attr.startswith("visit_"):
                methods[attr[len("visit_"):]] = getattr(self, attr)
        return methods


class ProjectRule(Rule):
    """Base class for cross-module rules.

    Project rules run *after* the per-file walk, over the
    :class:`~repro.lint.project.ProjectIndex` the engine assembled from
    every linted file's :class:`~repro.lint.project.ModuleFacts`.  They
    register, select and suppress exactly like per-file rules — a project
    finding anchored at ``path:line`` is silenced by the same inline
    ``# repro-lint: disable=...`` comment a per-file finding would be.
    """

    scope = "project"

    def check_project(self, index: "ProjectIndex") -> Iterable[Finding]:
        """Emit findings computed from the whole-program index."""
        return ()


_REGISTRY: NamedRegistry[type[Rule]] = NamedRegistry(
    "lint rule", SpecError, "'repro lint --list-rules'"
)


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator registering a rule under ``cls.meta.name``."""
    meta = getattr(cls, "meta", None)
    if not isinstance(meta, RuleMeta):
        raise SpecError(f"{cls.__name__} must define a RuleMeta 'meta' attribute")
    if meta.name == "all":
        raise SpecError("'all' is reserved for blanket suppressions")
    _REGISTRY.add(meta.name, cls)
    return cls


def unregister_rule(name: str) -> None:
    """Remove a registered rule (mainly for tests and plugins)."""
    _REGISTRY.remove(name)


def get_rule(name: str) -> type[Rule]:
    """Look up a rule class by name (with did-you-mean hints)."""
    return _REGISTRY.get(name)


def list_rules() -> list[str]:
    """Sorted names of the registered rules."""
    return _REGISTRY.names()


def iter_rule_metas() -> list[RuleMeta]:
    """The metadata of every registered rule, sorted by name."""
    return [cls.meta for cls in _REGISTRY.values()]


def rule_choices() -> tuple[str, ...]:
    """Valid values for the ``--rules`` CLI option."""
    return tuple(list_rules())


def attribute_chain(node: ast.AST) -> tuple[str, ...] | None:
    """The dotted-name parts of an attribute chain rooted at a plain name.

    ``np.random.default_rng`` -> ``("np", "random", "default_rng")``;
    anything whose root is not a bare :class:`ast.Name` (a call result, a
    subscript, ...) returns ``None`` — rules treat that as "cannot tell"
    rather than guessing.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def walk_findings(result: Iterable[Finding] | None) -> Iterator[Finding]:
    """Normalise a visitor's return value (``None`` or iterable) to findings."""
    if result is None:
        return
    yield from result
