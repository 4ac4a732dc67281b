"""repro.lint — repo-aware static analysis for the determinism contracts.

The test suite defends the paper's guarantees *dynamically* (byte-identity
across batch sizes, executors and shard merges); this package defends the
same contracts *statically*, at AST level, before a single test runs.

Per-file rules (one module at a time):

* ``no-raw-rng`` — randomness flows through :mod:`repro.utils.rng`;
* ``picklable-jobs`` — executor callables are module-level, job dataclasses
  carry plain data;
* ``spec-roundtrip`` — frozen spec dataclasses serialize every field;
* ``hot-path-hygiene`` — ``process_batch``, the kernels and the distributed
  reduce stay vectorised;
* ``registry-literal-names`` — registry keys are greppable literals;
* ``no-silent-except`` — no handler swallows executor/mmap errors;
* ``suppression-hygiene`` — suppressions name real rules and say why.

Project rules (whole-program, over the :class:`~repro.lint.project.ProjectIndex`
the engine assembles from every file):

* ``knob-drift`` — spec fields, ``solve()``/``Session`` kwargs and CLI
  flags stay in sync, both directions;
* ``transitive-picklability`` — callables reaching executors resolve to
  module-level defs through any chain of aliases/imports/factories;
* ``registry-docs-sync`` — registered names and README tables agree;
* ``export-hygiene`` — ``__all__`` entries exist, re-exports resolve,
  exports are used somewhere in the linted tree.

Run it as ``repro lint src benchmarks tests examples`` (text or
``--format json``), list the rules with ``repro lint --list-rules``, and
silence a deliberate exception inline::

    # repro-lint: disable=<rule>[,<rule>] -- justification

:func:`lint_paths` is the one tree-wide entry point: a single serial pass
parses each file once, runs the file rules and collects its facts, then
runs the project rules over one index of the whole tree.

New rules plug in exactly like solvers and datasets: subclass
:class:`~repro.lint.rules.Rule` (or
:class:`~repro.lint.rules.ProjectRule` for cross-module contracts), give
it a :class:`~repro.lint.rules.RuleMeta`, decorate with
:func:`~repro.lint.rules.register_rule`.
"""

from repro.lint import checks  # noqa: F401  (registers the built-in rules)
from repro.lint.engine import LintContext, collect_files, lint_paths, lint_source
from repro.lint.findings import Finding, LintReport
from repro.lint.project import ModuleFacts, ProjectIndex, collect_facts
from repro.lint.reporters import render_json, render_text, report_from_json
from repro.lint.rules import (
    ProjectRule,
    Rule,
    RuleMeta,
    get_rule,
    iter_rule_metas,
    list_rules,
    register_rule,
    rule_choices,
    unregister_rule,
)

__all__ = [
    "Finding",
    "LintReport",
    "LintContext",
    "ModuleFacts",
    "ProjectIndex",
    "ProjectRule",
    "Rule",
    "RuleMeta",
    "collect_facts",
    "collect_files",
    "get_rule",
    "iter_rule_metas",
    "lint_paths",
    "lint_source",
    "list_rules",
    "register_rule",
    "rule_choices",
    "render_json",
    "render_text",
    "report_from_json",
    "unregister_rule",
]
