"""The lint engine: file walker, shared AST walk and inline suppressions.

One :func:`lint_paths` call turns a set of files/directories into a
:class:`~repro.lint.findings.LintReport`, serially and in sorted file order:

* every ``*.py`` file under the given paths is read as bytes, decoded with
  its PEP 263 encoding (UTF-8 unless a coding cookie or BOM says otherwise)
  and parsed once; a file that does not decode or parse becomes one
  ``syntax-error`` finding instead of aborting the run;
* one AST walk per module dispatches each node to every interested rule
  (rules declare ``visit_<NodeType>`` methods — see
  :class:`~repro.lint.rules.Rule`), with the enclosing function/class stack
  maintained in the shared :class:`LintContext`;
* inline suppression comments silence findings line by line::

      rng = np.random.default_rng(7)  # repro-lint: disable=no-raw-rng -- literal seed, test fixture

  A suppression comment that is *alone* on its line covers the next line
  too, for statements too long to share a line with a comment.  The text
  after ``--`` is the mandatory justification; the ``suppression-hygiene``
  rule flags comments without one (and suppression can't silence that rule,
  otherwise ``disable=all`` would justify itself).

Results are deterministic: files are visited in sorted order and findings
sort by (path, line, col, rule), so two runs over the same tree produce
byte-identical reports.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.errors import SpecError
from repro.lint.findings import Finding, LintReport
from repro.lint.rules import Rule, get_rule, list_rules, walk_findings

__all__ = [
    "LintContext",
    "parse_suppressions",
    "lint_source",
    "lint_paths",
    "collect_files",
]

#: Rules whose findings an inline suppression can never silence — the
#: suppression machinery itself is audited by these.
UNSUPPRESSABLE_RULES = frozenset({"suppression-hygiene"})

#: ``# repro-lint: disable=<rule>[,<rule>...] [-- justification]``
_SUPPRESSION_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)"
    r"(?:\s+--\s*(?P<why>.*\S))?\s*$"
)


@dataclass(frozen=True)
class Suppression:
    """One inline ``# repro-lint: disable=...`` comment."""

    line: int
    rules: frozenset[str]
    justification: str | None
    standalone: bool

    def covers(self, rule: str) -> bool:
        """Whether this comment silences findings of ``rule``."""
        return rule not in UNSUPPRESSABLE_RULES and (
            "all" in self.rules or rule in self.rules
        )


def parse_suppressions(lines: Sequence[str]) -> dict[int, Suppression]:
    """Scan source lines for suppression comments, keyed by 1-based line."""
    suppressions: dict[int, Suppression] = {}
    for number, text in enumerate(lines, start=1):
        match = _SUPPRESSION_RE.search(text)
        if match is None:
            continue
        names = frozenset(part.strip() for part in match.group(1).split(","))
        standalone = text[: match.start()].strip() == ""
        suppressions[number] = Suppression(
            line=number,
            rules=names,
            justification=match.group("why"),
            standalone=standalone,
        )
    return suppressions


@dataclass
class LintContext:
    """Everything a rule may need while visiting one module."""

    path: Path
    display_path: str
    source: str
    lines: list[str]
    tree: ast.Module
    suppressions: dict[int, Suppression]
    #: Enclosing FunctionDef/AsyncFunctionDef/ClassDef nodes, outermost first;
    #: maintained by the walker, readable from any visit method.
    scope: list[ast.AST] = field(default_factory=list)

    def enclosing_functions(self) -> list[ast.AST]:
        """The stack of enclosing function nodes, outermost first."""
        return [
            node
            for node in self.scope
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]

    def enclosing_function(self) -> ast.AST | None:
        """The innermost enclosing function node, if any."""
        functions = self.enclosing_functions()
        return functions[-1] if functions else None

    def enclosing_class(self) -> ast.ClassDef | None:
        """The innermost enclosing class node, if any."""
        for node in reversed(self.scope):
            if isinstance(node, ast.ClassDef):
                return node
        return None

    def in_module(self, *suffixes: str) -> bool:
        """Whether this module's display path ends with any given suffix."""
        return self.display_path.endswith(suffixes)

    def suppressed(self, finding: Finding) -> bool:
        """Whether an inline comment silences ``finding``."""
        candidates = [self.suppressions.get(finding.line)]
        above = self.suppressions.get(finding.line - 1)
        if above is not None and above.standalone:
            candidates.append(above)
        return any(s is not None and s.covers(finding.rule) for s in candidates)


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _walk(
    node: ast.AST,
    ctx: LintContext,
    dispatch: dict[str, list],
    findings: list[Finding],
) -> None:
    handlers = dispatch.get(type(node).__name__)
    if handlers:
        for method in handlers:
            findings.extend(walk_findings(method(node, ctx)))
    is_scope = isinstance(node, _SCOPE_NODES)
    if is_scope:
        ctx.scope.append(node)
    try:
        for child in ast.iter_child_nodes(node):
            _walk(child, ctx, dispatch, findings)
    finally:
        if is_scope:
            ctx.scope.pop()


def _normalize_rule_names(rule_names: Iterable[str] | None) -> list[str]:
    """Expand ``None`` / the ``"all"`` selector into the full rule list."""
    if rule_names is None:
        return list_rules()
    names = list(rule_names)
    if "all" in names:
        return list_rules()
    return names


def _resolve_rules(rule_names: Iterable[str] | None) -> list[Rule]:
    """Fresh rule instances for one run (``None``/``"all"`` selects every rule)."""
    names = _normalize_rule_names(rule_names)
    if not names:
        raise SpecError("no lint rules selected")
    return [get_rule(name)() for name in names]


# --------------------------------------------------------------------------- #
# per-file analysis
# --------------------------------------------------------------------------- #


#: What one file contributes to a lint run: the findings that survived its
#: inline suppressions, in (line, col, rule) order, and how many were
#: suppressed.
FileAnalysis = tuple[list[Finding], int]


def _unreadable(display_path: str, line: int, col: int, message: str) -> FileAnalysis:
    """The analysis of a file that does not decode or parse: one finding."""
    finding = Finding(
        path=display_path, line=line, col=col, rule="syntax-error", message=message
    )
    return [finding], 0


def _analyze_module(
    source: str,
    display_path: str,
    path: Path,
    rule_names: Sequence[str],
) -> FileAnalysis:
    """Parse once and run the rules over the module."""
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return _unreadable(
            display_path,
            error.lineno or 1,
            (error.offset or 1) - 1,
            f"file does not parse: {error.msg}",
        )
    lines = source.splitlines()
    active = _resolve_rules(rule_names)
    ctx = LintContext(
        path=path,
        display_path=display_path,
        source=source,
        lines=lines,
        tree=tree,
        suppressions=parse_suppressions(lines),
    )
    dispatch: dict[str, list] = {}
    for rule in active:
        rule.begin_module(ctx)
        for node_type, method in rule.visitor_methods().items():
            dispatch.setdefault(node_type, []).append(method)
    raw: list[Finding] = []
    _walk(tree, ctx, dispatch, raw)
    for rule in active:
        raw.extend(walk_findings(rule.finish_module(ctx)))
    kept = sorted(finding for finding in raw if not ctx.suppressed(finding))
    return kept, len(raw) - len(kept)


def lint_source(
    source: str,
    display_path: str = "<string>",
    *,
    rules: Iterable[str] | None = None,
    path: Path | None = None,
) -> tuple[list[Finding], int]:
    """Lint one module's source text.

    Returns ``(findings, suppressed_count)`` — findings that survived the
    inline suppressions, in (line, col, rule) order.  A module that does not
    parse produces a single ``syntax-error`` finding instead of raising, so
    one broken file cannot abort a tree-wide run.
    """
    rule_names = _normalize_rule_names(rules)
    _resolve_rules(rule_names)  # validate names up front (did-you-mean hints)
    return _analyze_module(
        source,
        display_path,
        path if path is not None else Path(display_path),
        rule_names,
    )


def _analyze_file(
    path: Path, display_path: str, rule_names: Sequence[str]
) -> FileAnalysis:
    """Read, decode (PEP 263) and analyze one file.

    An undecodable file — bad bytes for its encoding, or an unknown coding
    cookie — is a ``syntax-error`` finding at line 1, like any other file
    the interpreter would refuse to load.
    """
    raw = path.read_bytes()
    try:
        encoding, _ = tokenize.detect_encoding(io.BytesIO(raw).readline)
        source = raw.decode(encoding)
    except (SyntaxError, UnicodeDecodeError) as error:
        return _unreadable(display_path, 1, 0, f"file does not decode: {error}")
    return _analyze_module(source, display_path, path, rule_names)


# --------------------------------------------------------------------------- #
# file collection
# --------------------------------------------------------------------------- #


def collect_files(paths: Iterable[Path | str]) -> list[Path]:
    """Expand files/directories into one sorted, de-duplicated ``*.py`` list.

    Overlapping arguments (``repro lint src src/repro``, a file listed twice,
    a file also covered by a directory) contribute each file exactly once,
    and the result is globally sorted by resolved path — one canonical order
    regardless of how the arguments sliced the tree.
    """
    seen: set[Path] = set()
    ordered: list[tuple[str, Path]] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.is_file():
            if path.suffix != ".py":
                raise SpecError(f"{path} is not a Python file")
            candidates = [path]
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                ordered.append((resolved.as_posix(), candidate))
    ordered.sort(key=lambda pair: pair[0])
    return [path for _, path in ordered]


def _display_path(path: Path) -> str:
    """Repo-relative posix path when possible, for stable report output."""
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


# --------------------------------------------------------------------------- #
# the tree-wide run
# --------------------------------------------------------------------------- #


def lint_paths(
    paths: Iterable[Path | str], *, rules: Iterable[str] | None = None
) -> LintReport:
    """Lint every ``*.py`` file under ``paths`` into one report.

    Each file is analyzed once, in :func:`collect_files` order.
    """
    rule_names = _normalize_rule_names(rules)
    _resolve_rules(rule_names)  # validates (did-you-mean hints)
    files = collect_files(paths)
    analyses = [
        _analyze_file(file, _display_path(file), rule_names) for file in files
    ]
    findings = sorted(finding for kept, _ in analyses for finding in kept)
    return LintReport(
        findings=tuple(findings),
        files_scanned=len(files),
        suppressed=sum(suppressed for _, suppressed in analyses),
        rules=tuple(rule_names),
    )
