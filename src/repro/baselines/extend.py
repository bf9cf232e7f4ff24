"""Extend (Schlosser, Kossmann, Boissier, ICDE 2019).

The recursive/greedy *extension* strategy: start from an empty
configuration; at each step either add the best new single-column index or
extend an already chosen index by appending one attribute, picking the
move with the highest benefit-to-storage ratio.  This is the academic
state of the art the paper compares against, and the "greedy incremental
algorithm (GIA)" of Fig 6 -- its one-column-at-a-time exploration is
exactly the behaviour AIM's coordinated multi-table candidates beat on
complex joins (Sec. VI-C).
"""

from __future__ import annotations

import math
import time
from typing import Optional

from ..catalog import Index
from ..optimizer import CostEvaluator, WorkloadCoster
from ..workload import Workload
from .base import SelectionAlgorithm
from .cost_eval import indexable_columns, single_column_candidates


class ExtendAlgorithm(SelectionAlgorithm):
    """Greedy single-attribute extension under a benefit/size ratio."""

    name = "extend"

    def __init__(
        self,
        db,
        max_width: int = 4,
        min_ratio: float = 0.0,
        time_limit_seconds: Optional[float] = None,
    ):
        super().__init__(db)
        self.max_width = max_width
        self.min_ratio = min_ratio
        self.time_limit_seconds = time_limit_seconds

    def _select(self, evaluator: CostEvaluator, workload: Workload, budget_bytes: int):
        deadline = (
            time.perf_counter() + self.time_limit_seconds
            if self.time_limit_seconds is not None
            else math.inf
        )
        pairs = workload.pairs()
        singles = single_column_candidates(evaluator, workload)
        extension_columns = self._extension_columns(evaluator, workload)

        chosen: list[Index] = []
        used_bytes = 0
        coster = WorkloadCoster(evaluator, pairs, chosen)
        current_cost = coster.cost(chosen)
        while time.perf_counter() <= deadline:
            best: Optional[tuple[float, float, Optional[Index], Index]] = None
            # Move type 1: add a new single-column index.
            for candidate in singles:
                if any(c.key == candidate.key for c in chosen):
                    continue
                size = self.db.index_size_bytes(candidate)
                if used_bytes + size > budget_bytes:
                    continue
                cost = coster.cost(chosen + [candidate])
                ratio = (current_cost - cost) / max(1, size)
                if ratio > self.min_ratio and (best is None or ratio > best[0]):
                    best = (ratio, cost, None, candidate)
            # Move type 2: extend a chosen index by one attribute.
            for existing in chosen:
                if existing.width >= self.max_width:
                    continue
                for column in extension_columns.get(existing.table, []):
                    if column in existing.columns:
                        continue
                    extended = Index(
                        existing.table, existing.columns + (column,), dataless=True
                    )
                    size_delta = self.db.index_size_bytes(extended) - self.db.index_size_bytes(existing)
                    if used_bytes + size_delta > budget_bytes:
                        continue
                    trial = [c for c in chosen if c.key != existing.key]
                    cost = coster.cost(trial + [extended])
                    ratio = (current_cost - cost) / max(1, size_delta)
                    if ratio > self.min_ratio and (best is None or ratio > best[0]):
                        best = (ratio, cost, existing, extended)
            if best is None:
                return chosen
            _ratio, cost, replaced, added = best
            if replaced is not None:
                chosen = [c for c in chosen if c.key != replaced.key]
                used_bytes -= self.db.index_size_bytes(replaced)
            chosen.append(added)
            coster.rebase(chosen)
            used_bytes += self.db.index_size_bytes(added)
            current_cost = cost
        return chosen   # anytime cutoff hit

    def _extension_columns(
        self, evaluator: CostEvaluator, workload: Workload
    ) -> dict[str, list[str]]:
        """Attributes an index may be extended by: a query's indexable
        columns first, then its remaining referenced columns (appending
        payload attributes is how Extend discovers index-only scans)."""
        out: dict[str, list[str]] = {}
        for query in workload:
            info = evaluator.analyze(query.sql)
            per_table = indexable_columns(info)
            for binding, table in info.bindings.items():
                columns = list(per_table.get(table, []))
                columns += sorted(info.referenced.get(binding, set()))
                existing = out.setdefault(table, [])
                for col in columns:
                    if col not in existing:
                        existing.append(col)
        return out
