"""``registry-docs-sync`` — registries and README tables agree, both ways.

The self-lint test has long cross-checked the *rule* table in the README
against ``--list-rules``; the other registries (solvers, datasets) relied on
authors remembering to edit docs.  This project rule generalizes the check:
every registration site recorded in the
:class:`~repro.lint.project.ProjectIndex` (``register_solver(name, ...)``,
``register_dataset(name, ...)``, ``@register_rule`` classes) must have a row
in the matching README table, and every table row must correspond to a
registration — so docs cannot drift from the registries in either
direction.

A README table is recognized by its first header cell (``solver``,
``dataset``, ``rule``); the first cell of each row, stripped of backticks,
is the registered name.  Only registrations in ``src`` modules count —
tests register throwaway names under fixtures all the time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.lint.findings import Finding
from repro.lint.rules import ProjectRule, RuleMeta, register_rule

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.lint.project import ProjectIndex

#: README table header (first cell, lowercased, backticks stripped) ->
#: registration kind recorded by the facts collector.
_TABLE_KINDS = {
    "rule": "rule",
    "solver": "solver",
    "dataset": "dataset",
    "generator": "dataset",
}


def _cells(line: str) -> list[str]:
    return [cell.strip() for cell in line.strip().strip("|").split("|")]


def _readme_tables(text: str) -> dict[str, dict[str, int]]:
    """Per registration kind, the documented names with their line numbers."""
    tables: dict[str, dict[str, int]] = {}
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        if not lines[i].lstrip().startswith("|"):
            i += 1
            continue
        start = i
        while i < len(lines) and lines[i].lstrip().startswith("|"):
            i += 1
        block = lines[start:i]
        if len(block) < 3:
            continue  # header + separator + at least one row
        header = _cells(block[0])
        kind = _TABLE_KINDS.get(header[0].strip("`*").strip().lower()) if header else None
        if kind is None:
            continue
        rows = tables.setdefault(kind, {})
        for line_number, row in enumerate(block[2:], start=start + 3):
            cells = _cells(row)
            if not cells:
                continue
            name = cells[0].strip().strip("`").strip()
            if name and not set(name) <= {"-", ":", " "}:
                rows.setdefault(name, line_number)
    return tables


@register_rule
class RegistryDocsSyncRule(ProjectRule):
    """Flag registered names absent from README tables, and vice versa."""

    meta = RuleMeta(
        name="registry-docs-sync",
        summary="registered names and README tables agree in both directions",
        rationale=(
            "Registries are the user-facing surface: CLI choices, "
            "list-* commands and the README tables all claim to describe "
            "the same set of names. A solver registered but undocumented "
            "is invisible to readers; a documented name that was renamed "
            "or removed sends users to a SpecError. Cross-checking both "
            "directions makes the docs a checked artifact."
        ),
        example_bad='register_solver("kcover/fancy", ...)  # README table lacks a row',
        example_good="| `kcover/fancy` | ... |  # row matches the registration",
    )

    def check_project(self, index: "ProjectIndex") -> Iterator[Finding]:
        registered: dict[str, dict[str, tuple[str, int, int]]] = {}
        for facts in index.modules:
            if not facts.in_src():
                continue  # test/bench fixtures register throwaway names
            for record in facts.registrations:
                registered.setdefault(record.kind, {}).setdefault(
                    record.name, (facts.display_path, record.line, record.col)
                )
        if not registered:
            return  # nothing in scope registers anything: no contract to check
        tables = (
            _readme_tables(index.readme_text) if index.readme_text is not None else {}
        )
        for kind in sorted(registered):
            documented = tables.get(kind)
            if documented is None:
                name, (path, line, col) = min(registered[kind].items())
                missing = "no README.md was found" if index.readme_text is None else (
                    f"the README has no {kind} table"
                )
                yield Finding(
                    path=path,
                    line=line,
                    col=col,
                    rule=self.meta.name,
                    message=(
                        f"{len(registered[kind])} registered {kind} name(s) "
                        f"(e.g. {name!r}) are undocumented: {missing}"
                    ),
                )
                continue
            for name, (path, line, col) in sorted(registered[kind].items()):
                if name not in documented:
                    yield Finding(
                        path=path,
                        line=line,
                        col=col,
                        rule=self.meta.name,
                        message=(
                            f"{kind} {name!r} is registered here but has no "
                            f"row in the README {kind} table"
                        ),
                    )
            for name, line in sorted(documented.items()):
                if name not in registered[kind]:
                    yield Finding(
                        path=index.readme_path or "README.md",
                        line=line,
                        col=0,
                        rule=self.meta.name,
                        message=(
                            f"README documents {kind} {name!r} but no "
                            "registration in the linted tree defines it"
                        ),
                    )
