"""AutoAdmin (Chaudhuri & Narasayya, VLDB 1997).

The original cost-driven index selection tool: per-query candidate
selection followed by Greedy(m, k) enumeration over the union.  We use
m = 1 seeds (the classic configuration) and greedy growth to k = budget.
"""

from __future__ import annotations

from ..catalog import Index
from ..optimizer import CostEvaluator, WorkloadCoster
from ..workload import Workload
from .base import SelectionAlgorithm, positive_gain, query_gains
from .cost_eval import per_query_candidates


class AutoAdminAlgorithm(SelectionAlgorithm):
    """Per-query best candidates + Greedy(m, k)."""

    name = "autoadmin"

    #: Best single-index candidates each query contributes to the pool.
    PER_QUERY_KEEP = 2

    def __init__(self, db, max_width: int = 2):
        super().__init__(db)
        self.max_width = max_width

    def _select(self, evaluator: CostEvaluator, workload: Workload, budget_bytes: int):
        per_query = per_query_candidates(
            evaluator, workload, self.max_width, with_permutations=False
        )
        pool: dict[tuple, Index] = {}
        for query in workload:
            if query.is_dml:
                continue
            candidates = per_query.get(query.normalized_sql, [])
            gains = query_gains(evaluator, query, candidates)
            for _gain, candidate in gains[: self.PER_QUERY_KEEP]:
                pool[candidate.key] = candidate

        coster = WorkloadCoster(evaluator, workload.pairs(), [])
        return self._greedy(
            coster, [], self._additions(pool.values(), budget_bytes), positive_gain
        )
