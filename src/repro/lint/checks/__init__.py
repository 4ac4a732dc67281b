"""The built-in repo-specific lint rules.

Importing this package registers every built-in rule in the rule registry
(the same import-for-side-effect convention the solver and dataset
registries use).  Each rule lives in its own module, named after the
contract it defends, and sees one module's AST at a time.
"""

from repro.lint.checks import (  # noqa: F401  (imported for registration)
    hot_path,
    raw_rng,
    raw_timing,
    silent_except,
    suppressions,
)

__all__ = [
    "hot_path",
    "raw_rng",
    "raw_timing",
    "silent_except",
    "suppressions",
]
