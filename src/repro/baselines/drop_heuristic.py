"""Drop heuristic (Whang, 1987).

Start from the full candidate pool and repeatedly drop the index whose
removal increases workload cost the least, until the configuration fits
the budget and no drop improves cost.  Simple and thorough -- and
O(n^2) optimizer calls, which is why it also serves as this
reproduction's expensive "DBA oracle" for the Table II experiments.
"""

from __future__ import annotations

from ..catalog import Index
from ..optimizer import CostEvaluator, WorkloadCoster
from ..workload import Workload
from .base import SelectionAlgorithm
from .cost_eval import candidate_pool, config_size


class DropAlgorithm(SelectionAlgorithm):
    """Iterative drop from the full syntactic candidate pool."""

    name = "drop"

    def __init__(self, db, max_width: int = 3):
        super().__init__(db)
        self.max_width = max_width

    def _select(self, evaluator: CostEvaluator, workload: Workload, budget_bytes: int):
        pairs = workload.pairs()
        current = candidate_pool(
            evaluator, workload, self.max_width, with_permutations=False
        )
        coster = WorkloadCoster(evaluator, pairs, current)
        current_cost = coster.cost(current)
        while current:
            over_budget = config_size(self.db, current) > budget_bytes
            best_drop = None
            best_cost = None
            for candidate in current:
                trial = [c for c in current if c.key != candidate.key]
                cost = coster.cost(trial)
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best_drop = candidate
            assert best_drop is not None and best_cost is not None
            # Keep dropping while forced by budget or while cost does not
            # get worse (removing a useless index is free).
            if over_budget or best_cost <= current_cost:
                current = [c for c in current if c.key != best_drop.key]
                coster.rebase(current)
                current_cost = best_cost
            else:
                break
        return current
