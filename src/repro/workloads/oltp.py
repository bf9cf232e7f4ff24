"""OLTP statement stream helpers for the replay experiments.

A :class:`WorkloadSampler` turns a weighted :class:`Workload` into a
statement stream (weights = relative frequencies); ``workload_shift``
models the paper's continuous-tuning trigger -- "expensive queries result
from new code pushes where developers forget to create supporting
secondary indexes" (Sec. VI-D).
"""

from __future__ import annotations

import random
from typing import Iterable

from ..workload import Workload, WorkloadQuery


class WorkloadSampler:
    """Samples statements from a workload proportionally to weight."""

    def __init__(self, workload: Workload, seed: int = 0):
        self.workload = workload
        self._rng = random.Random(seed)
        self._queries = list(workload.queries)
        self._weights = [max(1e-9, q.weight) for q in self._queries]

    def sample(self, n: int) -> list[WorkloadQuery]:
        """Draw *n* statements (with replacement)."""
        return self._rng.choices(self._queries, weights=self._weights, k=n)


def workload_shift(
    base: Workload,
    new_queries: Iterable[WorkloadQuery],
    hot_weight: float,
) -> Workload:
    """A new-code-push shift: *new_queries* arrive with *hot_weight* each."""
    shifted = Workload(list(base.queries), name=f"{base.name}-shifted")
    for query in new_queries:
        clone = WorkloadQuery(query.sql, hot_weight, name=query.name)
        shifted.add(clone)
    return shifted
