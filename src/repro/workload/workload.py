"""Workload container."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .query import WorkloadQuery


@dataclass
class Workload:
    """A weighted set of queries (the paper's ``W``)."""

    queries: list[WorkloadQuery] = field(default_factory=list)
    name: str = "workload"

    @classmethod
    def from_sql(
        cls,
        statements: Iterable[str | tuple[str, float]],
        name: str = "workload",
    ) -> "Workload":
        """Build a workload from SQL strings or (sql, weight) pairs."""
        queries = []
        for i, item in enumerate(statements):
            if isinstance(item, tuple):
                sql, weight = item
            else:
                sql, weight = item, 1.0
            queries.append(WorkloadQuery(sql, weight, name=f"q{i + 1}"))
        return cls(queries, name)

    def __iter__(self) -> Iterator[WorkloadQuery]:
        return iter(self.queries)

    def __len__(self) -> int:
        return len(self.queries)

    def add(self, query: WorkloadQuery) -> None:
        self.queries.append(query)

    @property
    def total_weight(self) -> float:
        return sum(q.weight for q in self.queries)

    def pairs(self) -> list[tuple[str, float]]:
        """(sql, weight) pairs for :meth:`CostEvaluator.workload_cost`."""
        return [(q.sql, q.weight) for q in self.queries]

    def by_name(self, name: str) -> Optional[WorkloadQuery]:
        for q in self.queries:
            if q.name == name:
                return q
        return None
