"""Relaxation (Bruno & Chaudhuri, SIGMOD 2005).

Start from the optimal per-query configuration union and repeatedly
*relax* it -- remove an index, truncate an index to a prefix, or merge
two indexes on one table -- choosing the transformation with the lowest
cost-increase per byte reclaimed, until the configuration fits the
budget.  The paper singles Relaxation out as "the only other modern
algorithm which utilizes the query structure to a significant extent"
but with "a prohibitively expensive runtime" (Sec. IX) -- its
start-big-then-shrink search shows exactly that profile here.

The search needs no step cap.  Each transformation removes one or two
indexes and adds at most one that is not already there, a prefix being
smaller than the index it truncates, so every step strictly lowers
``(index count, bytes)`` in lexicographic order and the search
terminates.  Over budget some index has a positive size, and removing it
reclaims bytes, so a step is always available: the search ends within
budget.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

from ..catalog import Index
from ..optimizer import CostEvaluator, WorkloadCoster
from ..workload import Workload
from .base import Move, SelectionAlgorithm
from .cost_eval import candidate_pool


class RelaxationAlgorithm(SelectionAlgorithm):
    """Start with per-query optimal union, relax until within budget."""

    name = "relaxation"

    def __init__(self, db, max_width: int = 3):
        super().__init__(db)
        self.max_width = max_width

    def _select(self, evaluator: CostEvaluator, workload: Workload, budget_bytes: int):
        pool = candidate_pool(
            evaluator, workload, self.max_width, with_permutations=False
        )

        def moves(config: list[Index], used_bytes: int) -> Iterator[Move]:
            # Over budget a step must reclaim bytes; within budget it must
            # shrink the index count or the bytes.
            over = used_bytes > budget_bytes
            for move in self._transformations(config):
                if move.delta_bytes < 0 or (not over and len(move.config) < len(config)):
                    yield move

        def score(cost: float, current_cost: float, move: Move, used_bytes: int):
            if used_bytes > budget_bytes:
                # Lowest cost per byte reclaimed.
                return -cost / max(1, -move.delta_bytes)
            # Within budget: take the first relaxation that does not hurt.
            return math.inf if cost <= current_cost else None

        coster = WorkloadCoster(evaluator, workload.pairs(), pool)
        return self._greedy(coster, pool, moves, score)

    def _transformations(self, config: list[Index]) -> Iterator[Move]:
        """All single-step relaxations of *config*."""
        size = self.db.index_size_bytes
        keys = {c.key for c in config}

        def replace(removed: tuple[Index, ...], added: Optional[Index]) -> Move:
            # *config* without *removed*, plus *added* unless it is kept.
            gone = {c.key for c in removed}
            trial = [c for c in config if c.key not in gone]
            delta = -sum(size(c) for c in removed)
            if added is not None and (added.key in gone or added.key not in keys):
                trial.append(added)
                delta += size(added)
            return Move(trial, delta)

        for index in config:
            yield replace((index,), None)
            if index.width > 1:
                prefixed = Index(index.table, index.columns[:-1], dataless=True)
                yield replace((index,), prefixed)
        # Merging two indexes on one table: union of columns, first's order.
        for i, a in enumerate(config):
            for b in config[i + 1:]:
                if a.table != b.table:
                    continue
                merged_cols = a.columns + tuple(
                    c for c in b.columns if c not in a.columns
                )
                if len(merged_cols) > self.max_width + 1:
                    continue
                yield replace((a, b), Index(a.table, merged_cols, dataless=True))
