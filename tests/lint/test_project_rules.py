"""The three cross-module rules, each against a seeded synthetic violation.

Every test builds a miniature project tree under ``tmp_path`` (the same
``src/<pkg>/...`` layout the real repo uses, so module names resolve), lints
it with exactly the project rule under test, and asserts the seeded drift is
caught — then that the repaired variant is clean, so the rules cannot pass
by firing on everything.
"""

from __future__ import annotations

import ast
import textwrap

import pytest

from repro.lint import lint_paths
from repro.lint.project import (
    CallArgRef,
    CallableResolution,
    FunctionFacts,
    ImportRecord,
    JobCallableRef,
    ModuleFacts,
    ProjectIndex,
    RegistrationRecord,
    collect_facts,
)


def write_tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")


def lint_tree(tmp_path, monkeypatch, rule, *paths):
    monkeypatch.chdir(tmp_path)
    return lint_paths(list(paths) or ["src"], rules=[rule])


FACTORY_MODULE = """\
    def make_handler():
        def inner(job):
            return job
        return inner


    handler = make_handler()
"""

RUNNER_MODULE = """\
    from app.work import handler


    def run(mapper, jobs):
        return mapper.map(handler, jobs)
"""


class TestTransitivePicklability:
    def test_closure_reached_through_helper_module_is_caught(self, tmp_path, monkeypatch):
        write_tree(tmp_path, {
            "src/app/work.py": FACTORY_MODULE,
            "src/app/runner.py": RUNNER_MODULE,
        })
        report = lint_tree(tmp_path, monkeypatch, "transitive-picklability")
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.path == "src/app/runner.py"
        assert "make_handler" in finding.message
        assert "nested function" in finding.message

    def test_module_level_def_through_same_chain_is_clean(self, tmp_path, monkeypatch):
        write_tree(tmp_path, {
            "src/app/work.py": "def handler(job):\n    return job\n",
            "src/app/runner.py": RUNNER_MODULE,
        })
        report = lint_tree(tmp_path, monkeypatch, "transitive-picklability")
        assert report.clean

    def test_module_level_lambda_alias_is_caught(self, tmp_path, monkeypatch):
        write_tree(tmp_path, {
            "src/app/work.py": "handler = lambda job: job\n",
            "src/app/runner.py": RUNNER_MODULE,
        })
        report = lint_tree(tmp_path, monkeypatch, "transitive-picklability")
        assert len(report.findings) == 1
        assert "lambda" in report.findings[0].message

    def test_lambda_into_job_dataclass_field_is_caught(self, tmp_path, monkeypatch):
        write_tree(tmp_path, {
            "src/app/jobs.py": """\
                from dataclasses import dataclass


                @dataclass(frozen=True)
                class ShardJob:
                    path: str


                def build():
                    return ShardJob(path=lambda: "nope")
            """,
        })
        report = lint_tree(tmp_path, monkeypatch, "transitive-picklability")
        assert len(report.findings) == 1
        assert "ShardJob" in report.findings[0].message


README_WITH_TABLE = """\
    # demo

    | solver | what it is |
    | --- | --- |
    | `alpha/one` | the first |
"""

SOLVER_MODULE = """\
    def register_solver(name, cls):
        return cls


    register_solver("alpha/one", object)
    register_solver("alpha/two", object)
"""


class TestRegistryDocsSync:
    def test_registered_name_absent_from_readme_is_caught(self, tmp_path, monkeypatch):
        write_tree(tmp_path, {
            "src/app/solvers.py": SOLVER_MODULE,
            "README.md": README_WITH_TABLE,
        })
        report = lint_tree(tmp_path, monkeypatch, "registry-docs-sync")
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.path == "src/app/solvers.py"
        assert "'alpha/two'" in finding.message

    def test_documented_name_without_registration_is_caught(self, tmp_path, monkeypatch):
        write_tree(tmp_path, {
            "src/app/solvers.py": SOLVER_MODULE.replace(
                'register_solver("alpha/two", object)\n', ""
            ),
            "README.md": README_WITH_TABLE + "| `alpha/ghost` | vanished |\n",
        })
        report = lint_tree(tmp_path, monkeypatch, "registry-docs-sync")
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.path.endswith("README.md")
        assert "'alpha/ghost'" in finding.message
        assert finding.line == 6  # the ghost row's line in README.md

    def test_synced_table_is_clean(self, tmp_path, monkeypatch):
        write_tree(tmp_path, {
            "src/app/solvers.py": SOLVER_MODULE,
            "README.md": README_WITH_TABLE + "| `alpha/two` | the second |\n",
        })
        report = lint_tree(tmp_path, monkeypatch, "registry-docs-sync")
        assert report.clean

    def test_registrations_without_any_table_are_caught(self, tmp_path, monkeypatch):
        write_tree(tmp_path, {
            "src/app/solvers.py": SOLVER_MODULE,
            "README.md": "# demo\n\nno tables here\n",
        })
        report = lint_tree(tmp_path, monkeypatch, "registry-docs-sync")
        assert len(report.findings) == 1
        assert "no solver table" in report.findings[0].message

    def test_test_tree_registrations_do_not_count(self, tmp_path, monkeypatch):
        write_tree(tmp_path, {
            "tests/test_fixture.py": SOLVER_MODULE,  # not under src/
            "src/app/core.py": "def noop():\n    return None\n",
            "README.md": "# demo\n",
        })
        monkeypatch.chdir(tmp_path)
        report = lint_paths(["src", "tests"], rules=["registry-docs-sync"])
        assert report.clean


class TestExportHygiene:
    def test_phantom_dunder_all_export_is_caught(self, tmp_path, monkeypatch):
        write_tree(tmp_path, {
            "src/app/mod.py": """\
                __all__ = ["real", "phantom"]


                def real():
                    return 1
            """,
        })
        report = lint_tree(tmp_path, monkeypatch, "export-hygiene")
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert "'phantom'" in finding.message
        assert finding.line == 1

    def test_broken_reexport_is_caught(self, tmp_path, monkeypatch):
        write_tree(tmp_path, {
            "src/app/__init__.py": "from app.mod import missing\n",
            "src/app/mod.py": "def present():\n    return 1\n",
        })
        report = lint_tree(tmp_path, monkeypatch, "export-hygiene")
        assert len(report.findings) == 1
        assert "app.mod import missing" in report.findings[0].message

    def test_submodule_import_is_not_a_broken_reexport(self, tmp_path, monkeypatch):
        write_tree(tmp_path, {
            "src/app/__init__.py": "from app import mod\n",
            "src/app/mod.py": "def present():\n    return 1\n",
        })
        report = lint_tree(tmp_path, monkeypatch, "export-hygiene")
        assert report.clean

    def test_dead_export_needs_non_src_scope_and_is_caught(self, tmp_path, monkeypatch):
        files = {
            "src/app/mod.py": """\
                __all__ = ["used", "unused"]


                def used():
                    return 1


                def unused():
                    return 2
            """,
            "tests/test_mod.py": """\
                from app.mod import used


                def test_used():
                    assert used() == 1
            """,
        }
        write_tree(tmp_path, files)
        monkeypatch.chdir(tmp_path)
        # src alone: "imported nowhere" is undecidable, the check stays off.
        assert lint_paths(["src"], rules=["export-hygiene"]).clean
        report = lint_paths(["src", "tests"], rules=["export-hygiene"])
        assert len(report.findings) == 1
        assert "'unused'" in report.findings[0].message

    def test_package_submodule_listing_is_not_dead(self, tmp_path, monkeypatch):
        write_tree(tmp_path, {
            "src/app/__init__.py": "from app import mod\n\n__all__ = [\"mod\"]\n",
            "src/app/mod.py": "def present():\n    return 1\n",
            "tests/test_nothing.py": "def test_nothing():\n    assert True\n",
        })
        monkeypatch.chdir(tmp_path)
        report = lint_paths(["src", "tests"], rules=["export-hygiene"])
        assert report.clean


PHANTOM_EXPORT = """\
    __all__ = ["real", "phantom"]


    def real():
        return 1
"""


class TestProjectSuppressions:
    """Project findings obey the same inline comments as file findings."""

    def test_trailing_comment_silences_a_project_finding(self, tmp_path, monkeypatch):
        write_tree(tmp_path, {
            "src/app/mod.py": PHANTOM_EXPORT.replace(
                '"phantom"]',
                '"phantom"]  # repro-lint: disable=export-hygiene -- lazy attribute',
            ),
        })
        report = lint_tree(tmp_path, monkeypatch, "export-hygiene")
        assert report.clean
        assert report.suppressed == 1

    def test_standalone_comment_above_silences_a_project_finding(self, tmp_path, monkeypatch):
        write_tree(tmp_path, {
            "src/app/mod.py": (
                "    # repro-lint: disable=export-hygiene -- lazy attribute\n"
                + PHANTOM_EXPORT
            ),
        })
        report = lint_tree(tmp_path, monkeypatch, "export-hygiene")
        assert report.clean
        assert report.suppressed == 1

    def test_comment_for_another_rule_does_not_silence_it(self, tmp_path, monkeypatch):
        write_tree(tmp_path, {
            "src/app/mod.py": PHANTOM_EXPORT.replace(
                '"phantom"]',
                '"phantom"]  # repro-lint: disable=registry-docs-sync -- wrong rule',
            ),
        })
        report = lint_tree(tmp_path, monkeypatch, "export-hygiene")
        assert [f.rule for f in report.findings] == ["export-hygiene"]
        assert report.suppressed == 0

    def test_broken_module_does_not_hide_project_findings_elsewhere(
        self, tmp_path, monkeypatch
    ):
        write_tree(tmp_path, {
            "src/app/broken.py": "def broken(:\n",
            "src/app/mod.py": PHANTOM_EXPORT,
        })
        monkeypatch.chdir(tmp_path)
        report = lint_paths(["src"])
        assert report.by_rule() == {"export-hygiene": 1, "syntax-error": 1}
        assert {f.path for f in report.findings} == {
            "src/app/broken.py", "src/app/mod.py",
        }


class TestProjectIndexFacts:
    """The facts layer itself: what one parse distills for the project rules."""

    def test_collect_facts_distills_the_module(self):
        source = textwrap.dedent("""\
            from dataclasses import dataclass
            from app.work import handler as h

            def register_solver(name, cls):
                return cls

            @dataclass(frozen=True)
            class ShardJob:
                path: str

            def make():
                def inner():
                    return 1
                return inner

            register_solver("alpha/one", ShardJob)

            def run(mapper, jobs):
                return mapper.map(h, jobs)
        """)
        facts = collect_facts(ast.parse(source), "src/app/demo.py")
        assert isinstance(facts, ModuleFacts)
        assert facts.module == "app.demo"
        assert ImportRecord(module="app.work", name="handler", alias="h", line=2) in facts.imports
        assert isinstance(facts.functions["make"], FunctionFacts)
        assert facts.functions["make"].returns_nested
        assert RegistrationRecord(kind="solver", name="alpha/one", line=16, col=0) in facts.registrations
        assert any(
            isinstance(ref, CallArgRef) and ref.target == "h"
            for ref in facts.mapper_calls
        )

    def test_resolver_classifies_across_modules(self):
        work = collect_facts(
            ast.parse("handler = lambda job: job\n"), "src/app/work.py"
        )
        runner = collect_facts(
            ast.parse("from app.work import handler\n"), "src/app/runner.py"
        )
        index = ProjectIndex([work, runner])
        resolution = index.resolve_callable(runner, "handler")
        assert isinstance(resolution, CallableResolution)
        assert resolution.is_violation
        assert "lambda" in resolution.detail

    def test_lambda_job_field_is_collected(self):
        source = textwrap.dedent("""\
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class PackJob:
                path: str

            job = PackJob(path=lambda: "x")
        """)
        facts = collect_facts(ast.parse(source), "src/app/jobs.py")
        lambdas = [ref for ref in facts.job_refs if ref.is_lambda]
        assert lambdas and isinstance(lambdas[0], JobCallableRef)
        assert (lambdas[0].job_class, lambdas[0].via) == ("PackJob", "constructor")

    def test_named_job_values_are_collected(self):
        source = textwrap.dedent("""\
            from dataclasses import dataclass
            from app.work import handler

            @dataclass(frozen=True)
            class PackJob:
                fn: object = handler

            job = PackJob(fn=handler)
        """)
        facts = collect_facts(ast.parse(source), "src/app/jobs.py")
        refs = {(ref.via, ref.target, ref.is_lambda) for ref in facts.job_refs}
        assert refs == {
            ("default", "handler", False),
            ("constructor", "handler", False),
        }

    def test_import_graph_links_project_modules(self):
        a = collect_facts(ast.parse("def alpha():\n    return 1\n"), "src/app/a.py")
        b = collect_facts(ast.parse("from app.a import alpha\n"), "src/app/b.py")
        c = collect_facts(ast.parse("from app.b import alpha\n"), "src/app/c.py")
        index = ProjectIndex([a, b, c])
        assert index.imported_paths("src/app/b.py") == ("src/app/a.py",)
        assert index.imported_paths("src/app/c.py") == ("src/app/b.py",)
        assert index.imported_paths("src/app/a.py") == ()


@pytest.mark.parametrize("rule", [
    "transitive-picklability", "registry-docs-sync", "export-hygiene",
])
def test_project_rules_skip_per_file_runs(rule):
    # lint_source has no whole-tree index; project rules must not crash it.
    from repro.lint import lint_source

    findings, suppressed = lint_source("x = 1\n", rules=[rule])
    assert findings == [] and suppressed == 0
