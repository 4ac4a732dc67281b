"""Exception hierarchy for the :mod:`repro` library.

All library-specific failures derive from :class:`ReproError`, so callers can
catch one base class.  Streaming-specific failures (space budget violations,
pass violations) have their own subclasses because the benchmark harness
treats them differently from plain usage errors.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidInstanceError",
    "CorruptInputError",
    "SpaceBudgetExceeded",
    "PassBudgetExceeded",
    "InfeasibleError",
    "StreamExhausted",
    "SpecError",
    "UnknownSolverError",
    "UnknownDatasetError",
]


class ReproError(Exception):
    """Base class for every exception raised by the library."""


class InvalidInstanceError(ReproError):
    """A coverage instance is malformed (e.g. empty ground set, bad ids)."""


class CorruptInputError(ReproError, ValueError):
    """An on-disk input is missing a file, unreadable or inconsistent.

    Raised by the columnar readers with the offending path in the message.
    Subclasses :class:`ValueError` so it surfaces as a usage error, like
    :class:`SpecError`.
    """


class SpaceBudgetExceeded(ReproError):
    """A streaming algorithm tried to store more than its space budget."""

    def __init__(self, used: int, budget: int, what: str = "edges") -> None:
        super().__init__(f"space budget exceeded: used {used} {what}, budget {budget}")
        self.used = used
        self.budget = budget
        self.what = what


class PassBudgetExceeded(ReproError):
    """A streaming algorithm requested more passes than allowed."""

    def __init__(self, used: int, budget: int) -> None:
        super().__init__(f"pass budget exceeded: used {used} passes, budget {budget}")
        self.used = used
        self.budget = budget


class InfeasibleError(ReproError):
    """The requested problem has no feasible solution.

    Raised e.g. by set cover when the family does not cover the ground set.
    """


class StreamExhausted(ReproError):
    """A pass was requested on a stream that cannot be replayed."""


class SpecError(ReproError, ValueError):
    """A run/problem/solver/stream spec is malformed or inconsistent.

    Subclasses :class:`ValueError` so spec mistakes surface as ordinary
    usage errors to callers (e.g. the CLI's non-zero exit path) while still
    being catchable under :class:`ReproError`.
    """


class UnknownSolverError(SpecError):
    """A solver name was not found in the :mod:`repro.api` registry."""


class UnknownDatasetError(SpecError):
    """A dataset name was not found in the :mod:`repro.datasets` registry."""
