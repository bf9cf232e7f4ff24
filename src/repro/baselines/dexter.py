"""Dexter-style advisor (github.com/ankane/dexter).

The pragmatic open-source approach: hypothesize single-column (and
two-column) indexes on filtered/joined columns, keep those the optimizer
actually uses with at least ``min_improvement`` relative gain, then fit
the budget by gain density.
"""

from __future__ import annotations

from ..catalog import Index
from ..optimizer import CostEvaluator
from ..workload import Workload
from .base import SelectionAlgorithm, fill
from .cost_eval import indexable_columns


class DexterAlgorithm(SelectionAlgorithm):
    """Hypothesize-and-keep-used with an improvement threshold."""

    name = "dexter"

    #: Also hypothesize each table's two leading indexable columns.
    TWO_COLUMN = True

    def __init__(self, db, min_improvement: float = 0.1):
        super().__init__(db)
        self.min_improvement = min_improvement

    def _select(self, evaluator: CostEvaluator, workload: Workload, budget_bytes: int):
        kept: dict[tuple, Index] = {}
        gain_by_index: dict[tuple, float] = {}
        for query in workload:
            if query.is_dml:
                continue
            info = evaluator.analyze(query.sql)
            hypothetical: dict[tuple, Index] = {}
            for table, columns in indexable_columns(info).items():
                for col in columns:
                    idx = Index(table, (col,), dataless=True)
                    hypothetical[idx.key] = idx
                if self.TWO_COLUMN and len(columns) >= 2:
                    idx = Index(table, tuple(columns[:2]), dataless=True)
                    hypothetical[idx.key] = idx
            if not hypothetical:
                continue
            base = evaluator.cost(query.sql, [])
            plan = evaluator.plan(query.sql, list(hypothetical.values()))
            if base <= 0:
                continue
            improvement = 1.0 - plan.total_cost / base
            if improvement < self.min_improvement:
                continue
            gain = (base - plan.total_cost) * query.weight
            used_keys = plan.used_index_keys
            used = [idx for idx in hypothetical.values() if idx.key in used_keys]
            for idx in used:
                kept[idx.key] = idx
                gain_by_index[idx.key] = gain_by_index.get(idx.key, 0.0) + gain / len(used)

        ordered = sorted(
            kept.values(),
            key=lambda c: gain_by_index[c.key] / max(1, self.db.index_size_bytes(c)),
            reverse=True,
        )
        return fill(self.db, ordered, budget_bytes)
