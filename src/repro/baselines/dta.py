"""DTA-style anytime algorithm (Chaudhuri & Narasayya, Microsoft 2022).

The Database Tuning Advisor's anytime architecture: per-query candidate
selection (best configuration for each query in isolation), then a greedy
configuration-enumeration over the union with a wall-clock *time limit*.
DTA is the industrial state of the art the paper benchmarks against; its
evaluation strategy "became prohibitively expensive when considering
indexes of width > 3 for complex workloads" (Sec. VI-B) -- visible here
as the candidate pool and optimizer-call count exploding with
``max_width``.
"""

from __future__ import annotations

from ..catalog import Index
from ..optimizer import CostEvaluator, WorkloadCoster
from ..workload import Workload
from .base import SelectionAlgorithm, deadline_after, positive_gain, query_gains
from .cost_eval import per_query_candidates


class DtaAlgorithm(SelectionAlgorithm):
    """Anytime per-query seeding + greedy enumeration."""

    name = "dta"

    #: Best single-index candidates each query contributes to the pool.
    PER_QUERY_KEEP = 3

    def __init__(self, db, max_width: int = 3, time_limit_seconds: float = 60.0):
        super().__init__(db)
        self.max_width = max_width
        self.time_limit_seconds = time_limit_seconds

    def _select(self, evaluator: CostEvaluator, workload: Workload, budget_bytes: int):
        deadline = deadline_after(self.time_limit_seconds)

        # Phase 1: per-query candidate selection -- evaluate every
        # syntactic candidate against its query, keep the best few.
        per_query = per_query_candidates(
            evaluator, workload, self.max_width, with_permutations=True
        )
        pool: dict[tuple, Index] = {}
        for query in workload:
            if query.is_dml:
                continue
            candidates = per_query.get(query.normalized_sql, [])
            gains = query_gains(evaluator, query, candidates, deadline)
            for _gain, candidate in gains[: self.PER_QUERY_KEEP]:
                pool[candidate.key] = candidate
            # Plus the query's best single candidate on each table.
            best_per_table: dict[str, Index] = {}
            for _gain, candidate in gains:
                best_per_table.setdefault(candidate.table, candidate)
            for candidate in best_per_table.values():
                pool[candidate.key] = candidate

        # Phase 2: anytime greedy enumeration over the pool.
        coster = WorkloadCoster(evaluator, workload.pairs(), [])
        return self._greedy(
            coster, [], self._additions(pool.values(), budget_bytes),
            positive_gain, deadline,
        )
