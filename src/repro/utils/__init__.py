"""Shared utilities: RNG, validation, logging, timing, tables."""

from repro.utils.logging import configure, get_logger, kv
from repro.utils.rng import (
    SplitMix64,
    derive_seed,
    mix64,
    random_permutation,
    sample_without_replacement,
    spawn_rng,
)
from repro.utils.tables import Table, render_grid, render_markdown
from repro.utils.timer import Stopwatch
from repro.utils.validation import (
    check_fraction,
    check_in_range,
    check_non_negative_int,
    check_open_unit,
    check_positive_int,
    check_probability,
    check_type,
)

__all__ = [
    "configure",
    "get_logger",
    "kv",
    "SplitMix64",
    "derive_seed",
    "mix64",
    "random_permutation",
    "sample_without_replacement",
    "spawn_rng",
    "Table",
    "render_grid",
    "render_markdown",
    "Stopwatch",
    "check_fraction",
    "check_in_range",
    "check_non_negative_int",
    "check_open_unit",
    "check_positive_int",
    "check_probability",
    "check_type",
]
