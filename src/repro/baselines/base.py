"""Common interface for index selection algorithms.

Every algorithm -- AIM and the baselines from the Kossmann et al.
evaluation framework -- implements ``select(workload, budget)`` on top of
the same what-if :class:`~repro.optimizer.CostEvaluator`, so runtime and
optimizer-call comparisons (Fig 4b/4d) are apples to apples.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Optional

from ..catalog import Index
from ..engine import Database
from ..obs import get_registry, trace
from ..optimizer import CostEvaluator
from ..workload import Workload


@dataclass
class AlgorithmResult:
    """Outcome of one algorithm run."""

    algorithm: str
    indexes: list[Index] = field(default_factory=list)
    runtime_seconds: float = 0.0
    optimizer_calls: int = 0
    cost_before: float = 0.0
    cost_after: float = 0.0
    total_size_bytes: int = 0

    @property
    def relative_cost(self) -> float:
        """Workload cost relative to the unindexed baseline (Fig 4a/4c)."""
        if self.cost_before <= 0:
            return 1.0
        return self.cost_after / self.cost_before


class SelectionAlgorithm(ABC):
    """Base class: times the run and reports costs uniformly."""

    name = "base"

    def __init__(self, db: Database):
        self.db = db

    def select(
        self,
        workload: Workload,
        budget_bytes: int,
        evaluator: Optional[CostEvaluator] = None,
    ) -> AlgorithmResult:
        """Run the algorithm; returns the selected configuration and
        bookkeeping (wall-clock runtime, optimizer calls, costs).

        Pass *evaluator* to reuse one across runs (its plan caches then
        survive between invocations -- the repeated-tuning case).
        ``optimizer_calls`` always counts this run only.
        """
        if evaluator is None:
            evaluator = CostEvaluator(self.db, include_schema_indexes=False)
        calls_start = evaluator.optimizer_calls
        with trace("baseline.select", algorithm=self.name) as span:
            indexes = self._select(evaluator, workload, budget_bytes)
            span.set(
                optimizer_calls=evaluator.optimizer_calls - calls_start,
                indexes=len(indexes),
            )
        runtime = span.duration
        selection_calls = evaluator.optimizer_calls
        with trace("baseline.cost_eval", algorithm=self.name) as cost_span:
            cost_before = evaluator.workload_cost(workload.pairs(), [])
            cost_after = evaluator.workload_cost(workload.pairs(), indexes)
            cost_span.set(
                optimizer_calls=evaluator.optimizer_calls - selection_calls
            )
        run_calls = evaluator.optimizer_calls - calls_start
        registry = get_registry()
        registry.histogram(
            "baseline.select.seconds", "selection wall seconds per algorithm"
        ).observe(runtime, algorithm=self.name)
        registry.histogram(
            "baseline.optimizer_calls",
            "optimizer invocations per run (selection + cost accounting)",
        ).observe(run_calls, algorithm=self.name)
        return AlgorithmResult(
            algorithm=self.name,
            indexes=list(indexes),
            runtime_seconds=runtime,
            optimizer_calls=run_calls,
            cost_before=cost_before,
            cost_after=cost_after,
            total_size_bytes=sum(self.db.index_size_bytes(i) for i in indexes),
        )

    @abstractmethod
    def _select(
        self, evaluator: CostEvaluator, workload: Workload, budget_bytes: int
    ) -> list[Index]:
        """Algorithm-specific selection logic."""
