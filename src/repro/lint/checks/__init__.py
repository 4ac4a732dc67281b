"""The built-in repo-specific lint rules.

Importing this package registers every built-in rule in the rule registry
(the same import-for-side-effect convention the solver and dataset
registries use).  Each rule lives in its own module, named after the
contract it defends.  Per-file rules see one AST at a time; the project
rules (transitive picklability, registry/docs sync, export hygiene) run
after every file over the assembled :class:`~repro.lint.project.ProjectIndex`.
"""

from repro.lint.checks import (  # noqa: F401  (imported for registration)
    export_hygiene,
    hot_path,
    picklable_jobs,
    raw_rng,
    raw_timing,
    registry_docs,
    registry_names,
    silent_except,
    spec_roundtrip,
    suppressions,
    transitive_pickle,
)

__all__ = [
    "export_hygiene",
    "hot_path",
    "picklable_jobs",
    "raw_rng",
    "raw_timing",
    "registry_docs",
    "registry_names",
    "silent_except",
    "spec_roundtrip",
    "suppressions",
    "transitive_pickle",
]
