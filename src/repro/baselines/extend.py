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

from typing import Iterator, Optional

from ..catalog import Index
from ..optimizer import CostEvaluator, WorkloadCoster
from ..workload import Workload
from .base import Move, SelectionAlgorithm, deadline_after
from .cost_eval import indexable_columns, single_column_candidates


class ExtendAlgorithm(SelectionAlgorithm):
    """Greedy single-attribute extension under a benefit/size ratio."""

    name = "extend"

    #: A move must beat this benefit per byte to be taken.
    MIN_RATIO = 0.0

    def __init__(
        self,
        db,
        max_width: int = 4,
        time_limit_seconds: Optional[float] = None,
    ):
        super().__init__(db)
        self.max_width = max_width
        self.time_limit_seconds = time_limit_seconds

    def _select(self, evaluator: CostEvaluator, workload: Workload, budget_bytes: int):
        deadline = deadline_after(self.time_limit_seconds)
        size = self.db.index_size_bytes
        additions = self._additions(
            single_column_candidates(evaluator, workload), budget_bytes
        )
        extension_columns = self._extension_columns(evaluator, workload)

        def moves(config: list[Index], used_bytes: int) -> Iterator[Move]:
            # Move type 1: add a new single-column index.
            yield from additions(config, used_bytes)
            # Move type 2: extend a chosen index by one attribute.
            for existing in config:
                if existing.width >= self.max_width:
                    continue
                for column in extension_columns.get(existing.table, []):
                    if column in existing.columns:
                        continue
                    extended = Index(
                        existing.table, existing.columns + (column,), dataless=True
                    )
                    delta = size(extended) - size(existing)
                    if used_bytes + delta <= budget_bytes:
                        trial = [c for c in config if c.key != existing.key]
                        yield Move(trial + [extended], delta)

        def score(cost: float, current_cost: float, move: Move, used_bytes: int):
            ratio = (current_cost - cost) / max(1, move.delta_bytes)
            return ratio if ratio > self.MIN_RATIO else None

        coster = WorkloadCoster(evaluator, workload.pairs(), [])
        return self._greedy(coster, [], moves, score, deadline)

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
