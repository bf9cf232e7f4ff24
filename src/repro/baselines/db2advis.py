"""DB2 Advisor (Valentin et al., ICDE 2000).

Per-query candidate evaluation assigns each candidate the benefit it
yields for the queries whose plans use it; selection is a knapsack by
benefit density followed by a bounded random-variation improvement pass
(the original's "try harder" swap phase), seeded deterministically.
"""

from __future__ import annotations

import random

from ..catalog import Index
from ..optimizer import CostEvaluator, WorkloadCoster
from ..workload import Workload
from .base import SelectionAlgorithm, fill
from .cost_eval import config_size, per_query_candidates


class Db2AdvisAlgorithm(SelectionAlgorithm):
    """Benefit-density knapsack with random swap improvement."""

    name = "db2advis"

    #: Random swaps tried by the improvement pass, and their seed.
    SWAP_ROUNDS = 20
    SEED = 7

    def __init__(self, db, max_width: int = 3):
        super().__init__(db)
        self.max_width = max_width

    def _select(self, evaluator: CostEvaluator, workload: Workload, budget_bytes: int):
        pairs = workload.pairs()
        per_query = per_query_candidates(
            evaluator, workload, self.max_width, with_permutations=False
        )
        benefit: dict[tuple, float] = {}
        pool: dict[tuple, Index] = {}
        for query in workload:
            if query.is_dml:
                continue
            candidates = per_query.get(query.normalized_sql, [])
            if not candidates:
                continue
            base = evaluator.cost(query.sql, [])
            plan = evaluator.plan(query.sql, candidates)
            gain = max(0.0, base - plan.total_cost) * query.weight
            used = plan.used_index_keys
            used_candidates = [c for c in candidates if c.key in used]
            for candidate in used_candidates:
                pool[candidate.key] = candidate
                benefit[candidate.key] = (
                    benefit.get(candidate.key, 0.0) + gain / len(used_candidates)
                )

        ordered = sorted(
            pool.values(),
            key=lambda c: benefit[c.key] / max(1, self.db.index_size_bytes(c)),
            reverse=True,
        )
        chosen = fill(self.db, ordered, budget_bytes)

        # Random-variation improvement: swap one in/out, keep if better.
        rng = random.Random(self.SEED)
        outside = [c for c in pool.values() if c not in chosen]
        coster = WorkloadCoster(evaluator, pairs, chosen)
        best_cost = coster.cost(chosen)
        for _ in range(self.SWAP_ROUNDS):
            if not outside or not chosen:
                break
            incoming = rng.choice(outside)
            outgoing = rng.choice(chosen)
            trial = [c for c in chosen if c.key != outgoing.key] + [incoming]
            if config_size(self.db, trial) > budget_bytes:
                continue
            cost = coster.cost(trial)
            if cost < best_cost:
                best_cost = cost
                outside = [c for c in outside if c.key != incoming.key] + [outgoing]
                chosen = trial
                coster.rebase(chosen)
        return chosen
