"""Space accounting for streaming algorithms.

The whole point of the paper is the space complexity (``O~(n)`` edges instead
of ``O~(m)`` or ``O~(nm)``), so every streaming algorithm in this library
reports how many edges / words it actually stored.  :class:`SpaceMeter`
centralises that accounting and can optionally *enforce* a budget, raising
:class:`repro.errors.SpaceBudgetExceeded` when an algorithm exceeds it — this
is how the lower-bound experiments constrain their competitors.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SpaceBudgetExceeded

__all__ = ["SpaceMeter"]


@dataclass
class SpaceMeter:
    """Tracks the current and peak number of stored items.

    Parameters
    ----------
    budget:
        Optional hard limit; ``charge`` beyond the limit raises
        :class:`SpaceBudgetExceeded` when ``enforce`` is true.
    enforce:
        Whether exceeding the budget raises (otherwise it is only recorded).
    unit:
        Human-readable unit name used in error messages and reports
        (typically ``"edges"`` or ``"words"``).
    """

    budget: int | None = None
    enforce: bool = True
    unit: str = "edges"
    current: int = 0
    peak: int = 0
    total_charged: int = 0
    violations: int = 0

    def charge(self, amount: int = 1) -> None:
        """Record that ``amount`` additional items are now stored."""
        if amount < 0:
            raise ValueError("use release() to free space")
        self.current += amount
        self.total_charged += amount
        if self.current > self.peak:
            self.peak = self.current
        if self.budget is not None and self.current > self.budget:
            self.violations += 1
            if self.enforce:
                raise SpaceBudgetExceeded(self.current, self.budget, self.unit)

    def release(self, amount: int = 1) -> None:
        """Record that ``amount`` items were discarded."""
        if amount < 0:
            raise ValueError("amount must be non-negative")
        self.current = max(0, self.current - amount)

    def apply(self, charged: int, released: int, high: int) -> None:
        """Record a whole sequence of charges and releases in one step.

        ``charged`` and ``released`` are the sequence's totals and ``high``
        its high-water mark: the most the usage rose above its starting
        value at any point.  The result is what the ``charge``/``release``
        calls of the sequence would leave, as long as no release floors the
        usage at zero.  A meter with a budget checks every charge, so it
        takes the calls one by one instead.
        """
        if self.budget is not None:
            raise ValueError("a meter with a budget checks each charge; use charge()")
        if min(charged, released) < 0 or not max(0, charged - released) <= high <= charged:
            raise ValueError(
                f"inconsistent totals: charged={charged}, released={released}, high={high}"
            )
        self.peak = max(self.peak, self.current + high)
        self.current = max(0, self.current + charged - released)
        self.total_charged += charged

    @property
    def within_budget(self) -> bool:
        """Whether the peak usage stayed within the budget (if any)."""
        return self.budget is None or self.peak <= self.budget

    def as_dict(self) -> dict[str, int | str | bool | None]:
        """Summary for experiment reports."""
        return {
            "unit": self.unit,
            "budget": self.budget,
            "peak": self.peak,
            "current": self.current,
            "total_charged": self.total_charged,
            "within_budget": self.within_budget,
            "violations": self.violations,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpaceMeter(peak={self.peak}, current={self.current}, "
            f"budget={self.budget}, unit={self.unit!r})"
        )
