"""repro.lint — repo-aware static analysis for the determinism contracts.

The test suite defends the paper's guarantees *dynamically* (byte-identity
across batch sizes, executors and shard merges, and runtime checks that
every process-pool fan-out pickles, every ``__all__`` entry resolves and the
README tables match the registries); this package defends the contracts a
single module's AST can decide *statically*, before a single test runs:

* ``no-raw-rng`` — randomness flows through :mod:`repro.utils.rng`;
* ``raw-timing`` — library timing reads flow through :mod:`repro.obs.clock`;
* ``hot-path-hygiene`` — ``process_batch``, the kernels and the distributed
  reduce stay vectorised;
* ``no-silent-except`` — no handler swallows executor/mmap errors;
* ``suppression-hygiene`` — suppressions name real rules and say why.

Run it as ``repro lint src benchmarks tests examples`` (text or
``--format json``), list the rules with ``repro lint --list-rules``, and
silence a deliberate exception inline::

    # repro-lint: disable=<rule>[,<rule>] -- justification

:func:`lint_paths` is the one tree-wide entry point: a single serial pass
parses each file once and runs every selected rule over it.

New rules plug in exactly like solvers and datasets: subclass
:class:`~repro.lint.rules.Rule`, give it a
:class:`~repro.lint.rules.RuleMeta`, decorate with
:func:`~repro.lint.rules.register_rule`.
"""

from repro.lint import checks  # noqa: F401  (registers the built-in rules)
from repro.lint.engine import LintContext, collect_files, lint_paths, lint_source
from repro.lint.findings import Finding, LintReport
from repro.lint.reporters import render_json, render_text, report_from_json
from repro.lint.rules import (
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
    "Rule",
    "RuleMeta",
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
