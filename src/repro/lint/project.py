"""The whole-program side of :mod:`repro.lint`: module facts and the index.

Per-file rules see one AST at a time; the contracts that cost the most
review time span *files* — a knob present in ``ProblemSpec`` but missing
from the CLI, a callable that reaches a process pool through two aliases, a
registered solver absent from the README table.  To check those, the engine
extracts a :class:`ModuleFacts` summary from every file it parses (imports,
module-level symbol table, function signatures, registration and executor
call sites, ``__all__``) and assembles the summaries into one
:class:`ProjectIndex`: import graph, dotted-module lookup and a
cross-module callable resolver.

Facts are plain frozen dataclasses of strings and ints, collected from the
same parse the file rules walk, so the project phase never re-reads a file.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import PurePosixPath
from typing import Iterable

from repro.lint.rules import attribute_chain

__all__ = [
    "ImportRecord",
    "FunctionFacts",
    "DataclassFacts",
    "CallArgRef",
    "JobCallableRef",
    "RegistrationRecord",
    "ModuleFacts",
    "CallableResolution",
    "ProjectIndex",
    "collect_facts",
    "module_name_for",
]


def module_name_for(display_path: str) -> tuple[str, bool]:
    """Dotted module name for a display path, plus whether it is a package.

    Anything after the last ``src`` component is the import root (the layout
    this repo and the synthetic test trees share); paths without a ``src``
    component (``tests/...``, ``benchmarks/...``) use the path as-is.
    """
    parts = [p for p in PurePosixPath(display_path).parts if p not in ("/", "\\")]
    if "src" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("src")
        parts = parts[anchor + 1 :]
    if not parts:
        return "", False
    leaf = parts[-1]
    if leaf.endswith(".py"):
        parts[-1] = leaf[: -len(".py")]
    is_package = parts[-1] == "__init__"
    if is_package:
        parts = parts[:-1]
    return ".".join(parts), is_package


@dataclass(frozen=True)
class ImportRecord:
    """One import binding: ``alias`` names ``name`` (or ``module``) locally."""

    module: str
    name: str | None
    alias: str
    line: int


@dataclass(frozen=True)
class FunctionFacts:
    """Signature and body summary of one module-level function or method."""

    qualname: str
    line: int
    params: tuple[str, ...]
    kwonly: tuple[str, ...]
    param_lines: dict[str, int]
    has_kwargs: bool
    returns_nested: bool
    returned_names: tuple[str, ...]
    calls: tuple[str, ...]

    def all_params(self) -> tuple[str, ...]:
        """Positional and keyword-only parameter names together."""
        return self.params + self.kwonly


@dataclass(frozen=True)
class DataclassFacts:
    """Field inventory of one ``@dataclass``-decorated class."""

    name: str
    line: int
    fields: tuple[str, ...]
    field_lines: dict[str, int]


@dataclass(frozen=True)
class CallArgRef:
    """A named callable handed to an executor fan-out (``mapper.map(fn, ...)``)."""

    context: str
    target: str
    line: int
    col: int


@dataclass(frozen=True)
class JobCallableRef:
    """A lambda or named value flowing into a ``*Job`` dataclass field."""

    job_class: str
    via: str
    target: str
    is_lambda: bool
    line: int
    col: int


@dataclass(frozen=True)
class RegistrationRecord:
    """One registry registration site (``kind`` in solver/dataset/kernel/...)."""

    kind: str
    name: str
    line: int
    col: int


@dataclass(frozen=True)
class ModuleFacts:
    """Everything the project rules need to know about one module.

    ``symbols`` maps each module-level binding to a kind tag: ``"def"``,
    ``"class"``, ``"import"``, ``"lambda"``, ``"assign"`` (opaque value),
    ``"alias:<target>"`` (``x = y``) or ``"call:<callee>"`` (``x = f()``) —
    exactly the distinctions the cross-module callable resolver needs.
    """

    display_path: str
    module: str
    is_package: bool
    imports: tuple[ImportRecord, ...] = ()
    symbols: dict[str, str] | None = None
    symbol_lines: dict[str, int] | None = None
    functions: dict[str, FunctionFacts] | None = None
    dataclasses: dict[str, DataclassFacts] | None = None
    dunder_all: tuple[str, ...] | None = None
    dunder_all_lines: dict[str, int] | None = None
    star_import: bool = False
    used_names: tuple[str, ...] = ()
    mapper_calls: tuple[CallArgRef, ...] = ()
    job_refs: tuple[JobCallableRef, ...] = ()
    registrations: tuple[RegistrationRecord, ...] = ()
    cli_flags: dict[str, int] | None = None

    def __post_init__(self) -> None:
        for label in ("symbols", "symbol_lines", "functions", "dataclasses",
                      "dunder_all_lines", "cli_flags"):
            if getattr(self, label) is None:
                object.__setattr__(self, label, {})

    def in_src(self) -> bool:
        """Whether this module lives under a ``src`` component (public code)."""
        return "src" in PurePosixPath(self.display_path).parts


# --------------------------------------------------------------------------- #
# facts collection
# --------------------------------------------------------------------------- #

#: Receivers whose ``.map``/``.map_unordered`` calls are executor fan-outs.
_MAPPER_RECEIVERS = re.compile(r"(mapper|pool|executor)s?$", re.IGNORECASE)

#: Executor-object methods that take ``(fn, jobs)``.
_FANOUT_METHODS = frozenset({"map", "map_unordered"})

#: Class names treated as shippable job dataclasses.
_JOB_CLASS = re.compile(r"^[A-Z]\w*Job$")

#: ``register_*(name, ...)`` registration families, keyed by callee name.
_NAME_FIRST_KINDS = {"register_solver": "solver", "register_dataset": "dataset"}


def _iter_scope(node: ast.AST) -> Iterable[ast.AST]:
    """Walk a function body without descending into nested defs/lambdas."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(child))


def _dotted(node: ast.AST) -> str | None:
    chain = attribute_chain(node)
    return ".".join(chain) if chain is not None else None


def _function_facts(
    node: ast.FunctionDef | ast.AsyncFunctionDef, qualname: str, is_method: bool
) -> FunctionFacts:
    args = node.args
    positional = list(args.posonlyargs) + list(args.args)
    if is_method and positional and positional[0].arg in ("self", "cls"):
        positional = positional[1:]
    param_lines = {arg.arg: arg.lineno for arg in positional + list(args.kwonlyargs)}
    nested = {
        inner.name
        for inner in ast.walk(node)
        if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)) and inner is not node
    }
    returns_nested = False
    returned_names: list[str] = []
    calls: list[str] = []
    for child in _iter_scope(node):
        if isinstance(child, ast.Return) and child.value is not None:
            if isinstance(child.value, ast.Lambda):
                returns_nested = True
            elif isinstance(child.value, ast.Name):
                if child.value.id in nested:
                    returns_nested = True
                else:
                    returned_names.append(child.value.id)
        elif isinstance(child, ast.Call):
            name = _dotted(child.func)
            if name is not None:
                calls.append(name)
    return FunctionFacts(
        qualname=qualname,
        line=node.lineno,
        params=tuple(arg.arg for arg in positional),
        kwonly=tuple(arg.arg for arg in args.kwonlyargs),
        param_lines=param_lines,
        has_kwargs=args.kwarg is not None,
        returns_nested=returns_nested,
        returned_names=tuple(dict.fromkeys(returned_names)),
        calls=tuple(dict.fromkeys(calls)),
    )


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        chain = attribute_chain(
            decorator.func if isinstance(decorator, ast.Call) else decorator
        )
        if chain is not None and chain[-1] == "dataclass":
            return True
    return False


def _dataclass_facts(node: ast.ClassDef) -> DataclassFacts:
    fields: list[str] = []
    field_lines: dict[str, int] = {}
    for statement in node.body:
        if not isinstance(statement, ast.AnnAssign):
            continue
        if not isinstance(statement.target, ast.Name):
            continue
        annotation = ast.unparse(statement.annotation)
        if "ClassVar" in annotation or "InitVar" in annotation:
            continue
        name = statement.target.id
        if name.startswith("_"):
            continue
        fields.append(name)
        field_lines[name] = statement.lineno
    return DataclassFacts(
        name=node.name, line=node.lineno, fields=tuple(fields), field_lines=field_lines
    )


def _registered_rule_name(node: ast.ClassDef) -> str | None:
    """The RuleMeta name of a class decorated with ``@register_rule``."""
    decorated = any(
        (chain := attribute_chain(deco)) is not None and chain[-1] == "register_rule"
        for deco in node.decorator_list
    )
    if not decorated:
        return None
    for statement in node.body:
        if not isinstance(statement, ast.Assign):
            continue
        targets = [t.id for t in statement.targets if isinstance(t, ast.Name)]
        if "meta" not in targets or not isinstance(statement.value, ast.Call):
            continue
        chain = attribute_chain(statement.value.func)
        if chain is None or chain[-1] != "RuleMeta":
            continue
        for keyword in statement.value.keywords:
            if (
                keyword.arg == "name"
                and isinstance(keyword.value, ast.Constant)
                and isinstance(keyword.value.value, str)
            ):
                return keyword.value.value
    return None


def _fanout_context(node: ast.Call) -> str | None:
    """A human label (``"mapper.map"``) if this call fans a callable out."""
    func = node.func
    if not isinstance(func, ast.Attribute):
        return None
    receiver = _dotted(func.value)
    if func.attr == "submit":
        return f"{receiver or '<pool>'}.submit"
    if func.attr in _FANOUT_METHODS:
        if receiver is not None and _MAPPER_RECEIVERS.search(receiver.split(".")[-1]):
            return f"{receiver}.{func.attr}"
    return None


def _resolve_relative(module: str, is_package: bool, level: int, target: str | None) -> str:
    """Absolute dotted module for a relative import inside ``module``."""
    parts = module.split(".") if module else []
    if not is_package and parts:
        parts = parts[:-1]
    if level > 1:
        parts = parts[: max(0, len(parts) - (level - 1))]
    base = ".".join(parts)
    if target:
        return f"{base}.{target}" if base else target
    return base


class _FactsCollector:
    """One pass over a parsed module producing its :class:`ModuleFacts`."""

    def __init__(self, display_path: str) -> None:
        self.display_path = display_path
        self.module, self.is_package = module_name_for(display_path)
        self.imports: list[ImportRecord] = []
        self.symbols: dict[str, str] = {}
        self.symbol_lines: dict[str, int] = {}
        self.functions: dict[str, FunctionFacts] = {}
        self.dataclasses: dict[str, DataclassFacts] = {}
        self.dunder_all: list[str] | None = None
        self.dunder_all_lines: dict[str, int] = {}
        self.star_import = False
        self.mapper_calls: list[CallArgRef] = []
        self.job_refs: list[JobCallableRef] = []
        self.registrations: list[RegistrationRecord] = []
        self.cli_flags: dict[str, int] = {}

    def collect(self, tree: ast.Module) -> ModuleFacts:
        self._module_scope(tree.body)
        used: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Call):
                self._inspect_call(node)
            elif isinstance(node, ast.ClassDef):
                self._inspect_class(node)
        return ModuleFacts(
            display_path=self.display_path,
            module=self.module,
            is_package=self.is_package,
            imports=tuple(self.imports),
            symbols=self.symbols,
            symbol_lines=self.symbol_lines,
            functions=self.functions,
            dataclasses=self.dataclasses,
            dunder_all=tuple(self.dunder_all) if self.dunder_all is not None else None,
            dunder_all_lines=self.dunder_all_lines,
            star_import=self.star_import,
            used_names=tuple(sorted(used)),
            mapper_calls=tuple(self.mapper_calls),
            job_refs=tuple(self.job_refs),
            registrations=tuple(self.registrations),
            cli_flags=self.cli_flags,
        )

    # -- module scope ---------------------------------------------------- #
    def _module_scope(self, body: Iterable[ast.stmt]) -> None:
        for statement in body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._bind(statement.name, "def", statement.lineno)
                self.functions[statement.name] = _function_facts(
                    statement, statement.name, is_method=False
                )
            elif isinstance(statement, ast.ClassDef):
                self._bind(statement.name, "class", statement.lineno)
                for inner in statement.body:
                    if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qualname = f"{statement.name}.{inner.name}"
                        self.functions[qualname] = _function_facts(
                            inner, qualname, is_method=True
                        )
                if _is_dataclass_decorated(statement):
                    self.dataclasses[statement.name] = _dataclass_facts(statement)
            elif isinstance(statement, ast.Import):
                self._collect_import(statement)
            elif isinstance(statement, ast.ImportFrom):
                self._collect_import_from(statement)
            elif isinstance(statement, ast.Assign):
                self._collect_assign(statement)
            elif isinstance(statement, ast.AnnAssign):
                if isinstance(statement.target, ast.Name) and statement.value is not None:
                    self._bind(
                        statement.target.id,
                        self._value_kind(statement.value),
                        statement.lineno,
                    )
            elif isinstance(statement, ast.AugAssign):
                self._collect_aug_assign(statement)
            elif isinstance(statement, ast.If):
                self._module_scope(statement.body)
                self._module_scope(statement.orelse)
            elif isinstance(statement, ast.Try):
                self._module_scope(statement.body)
                for handler in statement.handlers:
                    self._module_scope(handler.body)
                self._module_scope(statement.orelse)
                self._module_scope(statement.finalbody)
            elif isinstance(statement, ast.With):
                self._module_scope(statement.body)

    def _bind(self, name: str, kind: str, line: int) -> None:
        self.symbols[name] = kind
        self.symbol_lines.setdefault(name, line)

    def _value_kind(self, value: ast.expr) -> str:
        if isinstance(value, ast.Lambda):
            return "lambda"
        target = _dotted(value)
        if target is not None:
            return f"alias:{target}"
        if isinstance(value, ast.Call):
            callee = _dotted(value.func)
            if callee is not None:
                return f"call:{callee}"
        return "assign"

    def _collect_import(self, node: ast.Import) -> None:
        for alias in node.names:
            binding = alias.asname or alias.name.split(".")[0]
            self._bind(binding, "import", node.lineno)
            self.imports.append(
                ImportRecord(
                    module=alias.name, name=None, alias=binding, line=node.lineno
                )
            )

    def _collect_import_from(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if node.level:
            module = _resolve_relative(self.module, self.is_package, node.level, node.module)
        for alias in node.names:
            if alias.name == "*":
                self.star_import = True
                continue
            binding = alias.asname or alias.name
            self._bind(binding, "import", node.lineno)
            self.imports.append(
                ImportRecord(
                    module=module, name=alias.name, alias=binding, line=node.lineno
                )
            )

    def _collect_assign(self, node: ast.Assign) -> None:
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        if names == ["__all__"]:
            self._collect_dunder_all(node.value, replace=True)
            return
        kind = self._value_kind(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._bind(target.id, kind, node.lineno)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    if isinstance(element, ast.Name):
                        self._bind(element.id, "assign", node.lineno)

    def _collect_aug_assign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Name) and node.target.id == "__all__":
            self._collect_dunder_all(node.value, replace=False)

    def _collect_dunder_all(self, value: ast.expr, *, replace: bool) -> None:
        if not isinstance(value, (ast.List, ast.Tuple)):
            return
        if replace or self.dunder_all is None:
            self.dunder_all = [] if replace else (self.dunder_all or [])
        for element in value.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                self.dunder_all.append(element.value)
                self.dunder_all_lines.setdefault(element.value, element.lineno)

    # -- whole-tree call/class sites -------------------------------------- #
    def _inspect_call(self, node: ast.Call) -> None:
        chain = attribute_chain(node.func)
        callee = chain[-1] if chain is not None else None
        if callee in _NAME_FIRST_KINDS and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                self.registrations.append(
                    RegistrationRecord(
                        kind=_NAME_FIRST_KINDS[callee],
                        name=first.value,
                        line=node.lineno,
                        col=node.col_offset,
                    )
                )
        elif callee == "add_argument":
            for arg in node.args:
                if (
                    isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)
                    and arg.value.startswith("--")
                ):
                    self.cli_flags.setdefault(arg.value, node.lineno)
        context = _fanout_context(node)
        if context is not None and node.args:
            target = _dotted(node.args[0])
            if target is not None:
                self.mapper_calls.append(
                    CallArgRef(
                        context=context,
                        target=target,
                        line=node.args[0].lineno,
                        col=node.args[0].col_offset,
                    )
                )
        if chain is not None and _JOB_CLASS.match(chain[-1]):
            values = list(node.args) + [kw.value for kw in node.keywords]
            for value in values:
                if isinstance(value, ast.Lambda):
                    self.job_refs.append(
                        JobCallableRef(
                            job_class=chain[-1],
                            via="constructor",
                            target="",
                            is_lambda=True,
                            line=value.lineno,
                            col=value.col_offset,
                        )
                    )
                else:
                    target = _dotted(value)
                    if target is not None:
                        self.job_refs.append(
                            JobCallableRef(
                                job_class=chain[-1],
                                via="constructor",
                                target=target,
                                is_lambda=False,
                                line=value.lineno,
                                col=value.col_offset,
                            )
                        )

    def _inspect_class(self, node: ast.ClassDef) -> None:
        rule_name = _registered_rule_name(node)
        if rule_name is not None:
            self.registrations.append(
                RegistrationRecord(
                    kind="rule", name=rule_name, line=node.lineno, col=node.col_offset
                )
            )
        if _JOB_CLASS.match(node.name) and _is_dataclass_decorated(node):
            for statement in node.body:
                if not isinstance(statement, ast.AnnAssign) or statement.value is None:
                    continue
                if isinstance(statement.value, ast.Lambda):
                    self.job_refs.append(
                        JobCallableRef(
                            job_class=node.name,
                            via="default",
                            target="",
                            is_lambda=True,
                            line=statement.value.lineno,
                            col=statement.value.col_offset,
                        )
                    )
                else:
                    target = _dotted(statement.value)
                    if target is not None:
                        self.job_refs.append(
                            JobCallableRef(
                                job_class=node.name,
                                via="default",
                                target=target,
                                is_lambda=False,
                                line=statement.value.lineno,
                                col=statement.value.col_offset,
                            )
                        )


def collect_facts(tree: ast.Module, display_path: str) -> ModuleFacts:
    """Extract the :class:`ModuleFacts` summary of one parsed module."""
    return _FactsCollector(display_path).collect(tree)


# --------------------------------------------------------------------------- #
# the project index
# --------------------------------------------------------------------------- #

#: Resolution statuses for :meth:`ProjectIndex.resolve_callable`.
RESOLUTION_OK = "ok"
RESOLUTION_UNKNOWN = "unknown"
RESOLUTION_VIOLATION = "violation"

#: Recursion bound for alias/import chains (cycles are guarded separately;
#: this caps pathological straight-line chains).
_MAX_RESOLVE_DEPTH = 16


@dataclass(frozen=True)
class CallableResolution:
    """Outcome of resolving a dotted callable reference across modules."""

    status: str
    detail: str = ""

    @property
    def is_violation(self) -> bool:
        """Whether the reference provably cannot pickle by reference."""
        return self.status == RESOLUTION_VIOLATION


_OK = CallableResolution(RESOLUTION_OK)
_UNKNOWN = CallableResolution(RESOLUTION_UNKNOWN)


class ProjectIndex:
    """Cross-module view over a set of :class:`ModuleFacts`.

    Holds the import graph (display-path edges between project modules),
    a dotted-module lookup, and the cross-module callable resolver the
    ``transitive-picklability`` rule walks.
    """

    def __init__(
        self,
        facts: Iterable[ModuleFacts],
        *,
        readme_path: str | None = None,
        readme_text: str | None = None,
    ) -> None:
        self.modules: tuple[ModuleFacts, ...] = tuple(
            sorted(facts, key=lambda item: item.display_path)
        )
        self.by_path: dict[str, ModuleFacts] = {
            item.display_path: item for item in self.modules
        }
        self.by_module: dict[str, ModuleFacts] = {}
        for item in self.modules:
            if item.module:
                self.by_module.setdefault(item.module, item)
        self.readme_path = readme_path
        self.readme_text = readme_text
        self._edges: dict[str, tuple[str, ...]] = {}
        for item in self.modules:
            targets: list[str] = []
            for record in item.imports:
                for candidate in self._import_candidates(record):
                    resolved = self.by_module.get(candidate)
                    if resolved is not None and resolved is not item:
                        targets.append(resolved.display_path)
            self._edges[item.display_path] = tuple(dict.fromkeys(targets))

    @staticmethod
    def _import_candidates(record: ImportRecord) -> tuple[str, ...]:
        if record.name is None:
            return (record.module,)
        return (f"{record.module}.{record.name}", record.module)

    # -- graph ------------------------------------------------------------ #
    def imported_paths(self, display_path: str) -> tuple[str, ...]:
        """Display paths of the project modules ``display_path`` imports."""
        return self._edges.get(display_path, ())

    def find_module(self, *suffixes: str) -> ModuleFacts | None:
        """The first module (sorted by path) whose display path ends with a suffix."""
        for item in self.modules:
            if item.display_path.endswith(suffixes):
                return item
        return None

    # -- callable resolution ---------------------------------------------- #
    def resolve_callable(
        self,
        facts: ModuleFacts,
        dotted: str,
        _seen: frozenset[tuple[str, str]] = frozenset(),
    ) -> CallableResolution:
        """Classify a dotted callable reference seen inside ``facts``.

        ``ok`` — provably a module-level def/class (pickles by reference);
        ``violation`` — provably a lambda or a closure built by a factory;
        ``unknown`` — a local variable, an opaque value or an external
        import.  The rule that consumes this only acts on violations, so
        "unknown" is always the safe answer.
        """
        key = (facts.display_path, dotted)
        if key in _seen or len(_seen) >= _MAX_RESOLVE_DEPTH:
            return _UNKNOWN
        seen = _seen | {key}
        parts = dotted.split(".")
        root = parts[0]
        if root in ("self", "cls"):
            return _UNKNOWN
        symbols = facts.symbols or {}
        kind = symbols.get(root)
        if kind is None:
            return _UNKNOWN
        if kind == "def":
            return _OK if len(parts) == 1 else _UNKNOWN
        if kind == "class":
            return _OK
        if kind == "assign":
            return _UNKNOWN
        if kind == "lambda":
            line = (facts.symbol_lines or {}).get(root, 0)
            return CallableResolution(
                RESOLUTION_VIOLATION,
                f"resolves to the module-level lambda '{root}' "
                f"({facts.display_path}:{line}); lambdas have no importable "
                "name, so pickle-by-reference fails",
            )
        if kind.startswith("alias:"):
            target = kind[len("alias:"):]
            return self.resolve_callable(
                facts, ".".join([target] + parts[1:]), seen
            )
        if kind.startswith("call:"):
            return self._resolve_factory_result(facts, root, kind[len("call:"):], seen)
        if kind == "import":
            return self._resolve_imported(facts, parts, seen)
        return _UNKNOWN

    def _resolve_factory_result(
        self,
        facts: ModuleFacts,
        binding: str,
        maker: str,
        seen: frozenset[tuple[str, str]],
    ) -> CallableResolution:
        located = self._function_for(facts, maker, seen)
        if located is None:
            return _UNKNOWN
        owner, function = located
        if function.returns_nested:
            return CallableResolution(
                RESOLUTION_VIOLATION,
                f"is built by {maker}() ({owner.display_path}:{function.line}), "
                "which returns a nested function/lambda — a closure a process "
                "pool cannot pickle by reference",
            )
        for name in function.returned_names:
            result = self.resolve_callable(owner, name, seen)
            if result.is_violation:
                return CallableResolution(
                    RESOLUTION_VIOLATION,
                    f"is built by {maker}(), whose return value {result.detail}",
                )
        return _UNKNOWN

    def _function_for(
        self,
        facts: ModuleFacts,
        dotted: str,
        seen: frozenset[tuple[str, str]],
    ) -> tuple[ModuleFacts, FunctionFacts] | None:
        """Locate the :class:`FunctionFacts` a dotted name refers to, if any."""
        key = (facts.display_path, f"fn:{dotted}")
        if key in seen or len(seen) >= _MAX_RESOLVE_DEPTH:
            return None
        seen = seen | {key}
        functions = facts.functions or {}
        if dotted in functions:
            return facts, functions[dotted]
        parts = dotted.split(".")
        root = parts[0]
        kind = (facts.symbols or {}).get(root)
        if kind is None:
            return None
        if kind.startswith("alias:"):
            target = kind[len("alias:"):]
            return self._function_for(facts, ".".join([target] + parts[1:]), seen)
        if kind == "import":
            record = self._import_record(facts, root)
            if record is None:
                return None
            owner, remaining = self._follow_import(record, parts[1:])
            if owner is None or not remaining:
                return None
            return self._function_for(owner, ".".join(remaining), seen)
        return None

    def _import_record(self, facts: ModuleFacts, alias: str) -> ImportRecord | None:
        for record in facts.imports:
            if record.alias == alias:
                return record
        return None

    def _follow_import(
        self, record: ImportRecord, rest: list[str]
    ) -> tuple[ModuleFacts | None, list[str]]:
        """The project module an import lands in, plus the unresolved tail.

        ``(None, rest)`` means the import targets an external package.
        """
        if record.name is None:
            # ``import pkg.mod [as alias]`` — the dotted tail may traverse
            # further submodules; bind to the longest module prefix known.
            segments = record.module.split(".") + rest
            for cut in range(len(segments), 0, -1):
                candidate = ".".join(segments[:cut])
                module = self.by_module.get(candidate)
                if module is not None:
                    return module, segments[cut:]
            return None, rest
        submodule = self.by_module.get(f"{record.module}.{record.name}")
        if submodule is not None:
            return submodule, rest
        owner = self.by_module.get(record.module)
        if owner is not None:
            return owner, [record.name] + rest
        return None, rest

    def _resolve_imported(
        self,
        facts: ModuleFacts,
        parts: list[str],
        seen: frozenset[tuple[str, str]],
    ) -> CallableResolution:
        record = self._import_record(facts, parts[0])
        if record is None:
            return _UNKNOWN
        owner, remaining = self._follow_import(record, parts[1:])
        if owner is None:
            # External package: assume its attributes are importable
            # module-level objects — flagging them would be all noise.
            return _OK
        if not remaining:
            return _OK  # the module object itself
        return self.resolve_callable(owner, ".".join(remaining), seen)
