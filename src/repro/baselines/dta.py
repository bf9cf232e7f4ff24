"""DTA-style anytime algorithm (Chaudhuri & Narasayya, Microsoft 2022).

The Database Tuning Advisor's anytime architecture: per-query candidate
selection (best configuration for each query in isolation), candidate
merging, then a greedy configuration-enumeration over the union with a
wall-clock *time limit*.  DTA is the industrial state of the art the
paper benchmarks against; its evaluation strategy "became prohibitively
expensive when considering indexes of width > 3 for complex workloads"
(Sec. VI-B) -- visible here as the candidate pool and optimizer-call
count exploding with ``max_width``.
"""

from __future__ import annotations

import time
from typing import Optional

from ..catalog import Index
from ..optimizer import CostEvaluator, WorkloadCoster
from ..workload import Workload
from .base import SelectionAlgorithm
from .cost_eval import per_query_candidates


class DtaAlgorithm(SelectionAlgorithm):
    """Anytime per-query seeding + greedy enumeration."""

    name = "dta"

    def __init__(
        self,
        db,
        max_width: int = 3,
        time_limit_seconds: float = 60.0,
        per_query_keep: int = 3,
    ):
        super().__init__(db)
        self.max_width = max_width
        self.time_limit_seconds = time_limit_seconds
        self.per_query_keep = per_query_keep

    def _select(self, evaluator: CostEvaluator, workload: Workload, budget_bytes: int):
        deadline = time.perf_counter() + self.time_limit_seconds
        pairs = workload.pairs()

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
            base = evaluator.cost(query.sql, [])
            scored: list[tuple[float, Index]] = []
            for candidate in candidates:
                if time.perf_counter() > deadline:
                    break
                gain = base - evaluator.cost(query.sql, [candidate])
                if gain > 0:
                    scored.append((gain, candidate))
            scored.sort(key=lambda t: -t[0])
            for _gain, candidate in scored[: self.per_query_keep]:
                pool[candidate.key] = candidate
            # Merged candidate: the query's best pair combined per table.
            best_per_table: dict[str, Index] = {}
            for _gain, candidate in scored:
                best_per_table.setdefault(candidate.table, candidate)
            for candidate in best_per_table.values():
                pool[candidate.key] = candidate

        # Phase 2: anytime greedy enumeration over the pool.
        chosen: list[Index] = []
        used_bytes = 0
        coster = WorkloadCoster(evaluator, pairs, chosen)
        current_cost = coster.cost(chosen)
        candidates = list(pool.values())
        while time.perf_counter() <= deadline:
            best: Optional[tuple[float, Index, float]] = None
            for candidate in candidates:
                if any(c.key == candidate.key for c in chosen):
                    continue
                size = self.db.index_size_bytes(candidate)
                if used_bytes + size > budget_bytes:
                    continue
                cost = coster.cost(chosen + [candidate])
                gain = current_cost - cost
                if gain > 0 and (best is None or gain > best[0]):
                    best = (gain, candidate, cost)
                if time.perf_counter() > deadline:
                    break
            if best is None:
                break
            _gain, candidate, cost = best
            chosen.append(candidate)
            coster.rebase(chosen)
            used_bytes += self.db.index_size_bytes(candidate)
            current_cost = cost
        return chosen
