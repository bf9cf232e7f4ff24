"""Relaxation (Bruno & Chaudhuri, SIGMOD 2005).

Start from the optimal per-query configuration union and repeatedly
*relax* it -- remove an index, truncate an index to a prefix, or merge
two indexes on one table -- choosing the transformation with the lowest
cost-increase per byte reclaimed, until the configuration fits the
budget.  The paper singles Relaxation out as "the only other modern
algorithm which utilizes the query structure to a significant extent"
but with "a prohibitively expensive runtime" (Sec. IX) -- its
start-big-then-shrink search shows exactly that profile here.
"""

from __future__ import annotations

from typing import Optional

from ..catalog import Index
from ..optimizer import CostEvaluator, WorkloadCoster
from ..workload import Workload
from .base import SelectionAlgorithm
from .cost_eval import candidate_pool, config_size


class RelaxationAlgorithm(SelectionAlgorithm):
    """Start with per-query optimal union, relax until within budget."""

    name = "relaxation"

    def __init__(self, db, max_width: int = 3, max_steps: int = 400):
        super().__init__(db)
        self.max_width = max_width
        self.max_steps = max_steps

    def _select(self, evaluator: CostEvaluator, workload: Workload, budget_bytes: int):
        pairs = workload.pairs()
        current = candidate_pool(
            evaluator, workload, self.max_width, with_permutations=False
        )
        coster = WorkloadCoster(evaluator, pairs, current)
        current_cost = coster.cost(current)
        for _ in range(self.max_steps):
            size = config_size(self.db, current)
            if size <= budget_bytes:
                # Within budget: only keep relaxing while it does not hurt.
                step = self._free_relaxation(coster, current, current_cost)
            else:
                step = self._cheapest_relaxation(coster, current)
            if step is None:
                return current
            current, current_cost = step
            coster.rebase(current)
        return current

    def _transformations(self, current: list[Index]) -> list[list[Index]]:
        """All single-step relaxations of *current*."""
        out: list[list[Index]] = []
        for index in current:
            # Removal.
            out.append([c for c in current if c.key != index.key])
            # Prefixing (truncate the last column).
            if index.width > 1:
                prefixed = Index(index.table, index.columns[:-1], dataless=True)
                trial = [c for c in current if c.key != index.key]
                if all(c.key != prefixed.key for c in trial):
                    trial.append(prefixed)
                out.append(trial)
        # Merging two indexes on one table: union of columns, first's order.
        for i, a in enumerate(current):
            for b in current[i + 1:]:
                if a.table != b.table:
                    continue
                merged_cols = a.columns + tuple(
                    c for c in b.columns if c not in a.columns
                )
                if len(merged_cols) > self.max_width + 1:
                    continue
                merged = Index(a.table, merged_cols, dataless=True)
                trial = [c for c in current if c.key not in (a.key, b.key)]
                if all(c.key != merged.key for c in trial):
                    trial.append(merged)
                out.append(trial)
        return out

    def _cheapest_relaxation(
        self, coster: WorkloadCoster, current: list[Index]
    ) -> Optional[tuple[list[Index], float]]:
        base_size = config_size(self.db, current)
        best: Optional[tuple[float, list[Index], float]] = None
        for trial in self._transformations(current):
            reclaimed = base_size - config_size(self.db, trial)
            if reclaimed <= 0:
                continue
            cost = coster.cost(trial)
            penalty = cost / max(1, reclaimed)
            if best is None or penalty < best[0]:
                best = (penalty, trial, cost)
        if best is None:
            return None
        return best[1], best[2]

    def _free_relaxation(
        self, coster: WorkloadCoster, current: list[Index], current_cost: float
    ) -> Optional[tuple[list[Index], float]]:
        for trial in self._transformations(current):
            if len(trial) >= len(current) and config_size(self.db, trial) >= config_size(self.db, current):
                continue
            cost = coster.cost(trial)
            if cost <= current_cost:
                return trial, cost
        return None
