"""Drop heuristic (Whang, 1987).

Start from the full candidate pool and repeatedly drop the index whose
removal increases workload cost the least, until the configuration fits
the budget and no drop improves cost.  Simple and thorough -- and
O(n^2) optimizer calls, which is why it also serves as this
reproduction's expensive "DBA oracle" for the Table II experiments.
"""

from __future__ import annotations

from typing import Iterator

from ..catalog import Index
from ..optimizer import CostEvaluator, WorkloadCoster
from ..workload import Workload
from .base import Move, SelectionAlgorithm
from .cost_eval import candidate_pool


class DropAlgorithm(SelectionAlgorithm):
    """Iterative drop from the full syntactic candidate pool."""

    name = "drop"

    def __init__(self, db, max_width: int = 3):
        super().__init__(db)
        self.max_width = max_width

    def _select(self, evaluator: CostEvaluator, workload: Workload, budget_bytes: int):
        pool = candidate_pool(
            evaluator, workload, self.max_width, with_permutations=False
        )
        size = self.db.index_size_bytes

        def moves(config: list[Index], used_bytes: int) -> Iterator[Move]:
            for index in config:
                yield Move([c for c in config if c.key != index.key], -size(index))

        def score(cost: float, current_cost: float, move: Move, used_bytes: int):
            # Keep dropping while forced by budget or while cost does not
            # get worse (removing a useless index is free).
            if used_bytes > budget_bytes or cost <= current_cost:
                return -cost
            return None

        coster = WorkloadCoster(evaluator, workload.pairs(), pool)
        return self._greedy(coster, pool, moves, score)
