"""Tier-1 dogfood tests: the repository lints itself clean, and the README
tables document exactly what the registries hold.

Every contract the per-file rules defend (determinism, hot-path
vectorisation, clock hygiene, no silent excepts) is enforced over the
entire tree — any new violation, or any suppression without a
justification, fails here.  The registry tables are checked against the
live registries, in both directions.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.api import list_solvers
from repro.datasets import list_datasets
from repro.lint import iter_rule_metas, lint_paths, list_rules, render_text

REPO_ROOT = Path(__file__).resolve().parents[2]
LINTED_TREES = ("src", "benchmarks", "tests", "examples")

#: README table kind (the first header cell) -> the registry it documents.
REGISTRIES = {"dataset": list_datasets, "rule": list_rules, "solver": list_solvers}


def test_repository_lints_clean():
    report = lint_paths([REPO_ROOT / tree for tree in LINTED_TREES], rules=["all"])
    assert report.clean, "\n" + render_text(report)
    # Sanity: the walk really covered the tree, with every rule active.
    assert report.files_scanned > 100
    assert len(report.rules) >= 5


def _cells(line: str) -> list[str]:
    return [cell.strip() for cell in line.strip().strip("|").split("|")]


def readme_table(text: str, kind: str) -> set[str] | None:
    """The first-column names of the README tables headed ``kind``.

    A table is a run of ``|`` lines whose first header cell is ``kind``;
    each row's first cell, stripped of backticks, is a registered name.
    ``None`` when the README has no such table.
    """
    names: set[str] | None = None
    block: list[str] = []
    for line in [*text.splitlines(), ""]:
        if line.lstrip().startswith("|"):
            block.append(line)
            continue
        if len(block) >= 3 and _cells(block[0])[0].strip("`") == kind:
            names = names if names is not None else set()
            names.update(_cells(row)[0].strip("`") for row in block[2:])
        block = []
    return names


def registry_drift(kind: str, registered: list[str], readme: str) -> list[str]:
    """Every disagreement between a registry and its README table."""
    documented = readme_table(readme, kind)
    if documented is None:
        return [f"the README has no {kind} table"]
    return [
        *(f"{kind} {name!r} is registered but has no README row"
          for name in sorted(set(registered) - documented)),
        *(f"the README documents {kind} {name!r} but nothing registers it"
          for name in sorted(documented - set(registered))),
    ]


@pytest.mark.parametrize("kind", sorted(REGISTRIES))
def test_readme_documents_every_registered_name(kind):
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert registry_drift(kind, REGISTRIES[kind](), readme) == []


def test_readme_rule_summaries_match_the_metadata():
    # The README rule table is generated from the same metadata as
    # --list-rules; a summary edited on one side only fails here.
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for meta in iter_rule_metas():
        assert f"| `{meta.name}` | {meta.summary} |" in readme, (
            f"rule '{meta.name}' summary drifted from README.md; "
            "regenerate the Static analysis section"
        )
    assert "repro-lint: disable=" in readme  # suppression syntax documented


SEEDED_README = """\
| solver | what it is |
| --- | --- |
| `kcover/sketch` | documented and registered |
| `kcover/retired` | documented, no longer registered |

| dataset | generates |
| --- | --- |
| `uniform` | unrelated table |
"""


def test_registry_drift_catches_both_directions():
    drift = registry_drift("solver", ["kcover/sketch", "kcover/new"], SEEDED_README)
    assert drift == [
        "solver 'kcover/new' is registered but has no README row",
        "the README documents solver 'kcover/retired' but nothing registers it",
    ]
    assert registry_drift("rule", ["no-raw-rng"], SEEDED_README) == [
        "the README has no rule table"
    ]
    assert registry_drift("dataset", ["uniform"], SEEDED_README) == []
