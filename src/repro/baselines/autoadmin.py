"""AutoAdmin (Chaudhuri & Narasayya, VLDB 1997).

The original cost-driven index selection tool: per-query candidate
selection followed by Greedy(m, k) enumeration over the union.  We use
m = 1 seeds (the classic configuration) and greedy growth to k = budget.
"""

from __future__ import annotations

from typing import Optional

from ..catalog import Index
from ..optimizer import CostEvaluator, WorkloadCoster
from ..workload import Workload
from .base import SelectionAlgorithm
from .cost_eval import per_query_candidates


class AutoAdminAlgorithm(SelectionAlgorithm):
    """Per-query best candidates + Greedy(m, k)."""

    name = "autoadmin"

    def __init__(self, db, max_width: int = 2, per_query_keep: int = 2):
        super().__init__(db)
        self.max_width = max_width
        self.per_query_keep = per_query_keep

    def _select(self, evaluator: CostEvaluator, workload: Workload, budget_bytes: int):
        pairs = workload.pairs()
        per_query = per_query_candidates(
            evaluator, workload, self.max_width, with_permutations=False
        )
        pool: dict[tuple, Index] = {}
        for query in workload:
            if query.is_dml:
                continue
            base = evaluator.cost(query.sql, [])
            scored = []
            for candidate in per_query.get(query.normalized_sql, []):
                gain = base - evaluator.cost(query.sql, [candidate])
                if gain > 0:
                    scored.append((gain, candidate))
            scored.sort(key=lambda t: -t[0])
            for _gain, candidate in scored[: self.per_query_keep]:
                pool[candidate.key] = candidate

        chosen: list[Index] = []
        used_bytes = 0
        coster = WorkloadCoster(evaluator, pairs, chosen)
        current_cost = coster.cost(chosen)
        while True:
            best: Optional[tuple[float, Index, float]] = None
            for candidate in pool.values():
                if any(c.key == candidate.key for c in chosen):
                    continue
                size = self.db.index_size_bytes(candidate)
                if used_bytes + size > budget_bytes:
                    continue
                cost = coster.cost(chosen + [candidate])
                gain = current_cost - cost
                if gain > 0 and (best is None or gain > best[0]):
                    best = (gain, candidate, cost)
            if best is None:
                return chosen
            _gain, candidate, cost = best
            chosen.append(candidate)
            coster.rebase(chosen)
            used_bytes += self.db.index_size_bytes(candidate)
            current_cost = cost
