"""The advisor's outcome with metrics-driven explanations.

"Each index recommendation from AIM is accompanied with a metrics driven
explanation, making it easier to verify machine driven changes"
(paper abstract).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..catalog import Index

if TYPE_CHECKING:
    from .ranking import RankedCandidate

PHASE_NARROW = "narrow"
PHASE_COVERING = "covering"


def format_bytes(n: float) -> str:
    """Human-readable byte count (GiB/MiB/KiB)."""
    for unit, threshold in (("GiB", 1 << 30), ("MiB", 1 << 20), ("KiB", 1 << 10)):
        if abs(n) >= threshold:
            return f"{n / threshold:.2f} {unit}"
    return f"{n:.0f} B"


@dataclass
class Recommendation:
    """Outcome of one advisor run (Algorithm 1's ``production_indexes``).

    ``created`` holds the selected ranking records, by descending utility,
    each with its index materialized.
    """

    created: list[RankedCandidate] = field(default_factory=list)
    budget_bytes: int = 0
    cost_before: float = 0.0
    cost_after: float = 0.0
    runtime_seconds: float = 0.0
    optimizer_calls: int = 0
    rejected_for_regression: list[Index] = field(default_factory=list)

    @property
    def indexes(self) -> list[Index]:
        """The recommended indexes, in ranked (materialization) order."""
        return [rec.index for rec in self.created]

    @property
    def total_size_bytes(self) -> int:
        return sum(rec.size_bytes for rec in self.created)

    @property
    def improvement(self) -> float:
        """Relative workload cost reduction (0..1)."""
        if self.cost_before <= 0:
            return 0.0
        return max(0.0, 1.0 - self.cost_after / self.cost_before)

    def summary(self) -> str:
        lines = [
            f"AIM recommendation: {len(self.created)} indexes, "
            f"{format_bytes(self.total_size_bytes)} of "
            f"{format_bytes(self.budget_bytes)} budget, "
            f"workload cost {self.cost_before:.1f} -> {self.cost_after:.1f} "
            f"(-{self.improvement * 100:.1f}%), "
            f"{self.optimizer_calls} optimizer calls, "
            f"{self.runtime_seconds:.2f}s",
        ]
        for rec in self.created:
            lines.append(rec.explanation())
        for index in self.rejected_for_regression:
            lines.append(
                f"REJECTED {index.name} "
                f"(clone validation: would regress a query beyond λ3)"
            )
        return "\n".join(lines)
