"""Replica set simulation (paper Sec. VII-A).

Meta's MySQL offering replicates each database across machines; reads are
served by any replica, so execution statistics must be gathered from all
of them and aggregated for a holistic view.  :class:`ReplicaSet` models
that topology over one shared database whose costs are estimated: each
replica owns a :class:`~repro.workload.WorkloadMonitor`, reads
round-robin across replicas, writes hit every replica.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..engine import Database
from ..optimizer import CostEvaluator
from ..workload import WorkloadMonitor, WorkloadQuery


@dataclass
class Replica:
    """One machine serving a copy of the database."""

    name: str
    db: Database
    monitor: WorkloadMonitor = field(default_factory=WorkloadMonitor)

    def __post_init__(self) -> None:
        self._evaluator = CostEvaluator(self.db, include_schema_indexes=True)

    def serve(self, query: WorkloadQuery) -> float:
        """Estimate-serve one statement; returns its cost and records
        statistics the way a production statement digest would."""
        plan = self._evaluator.plan(query.sql)
        self.monitor.record_plan(query.sql, plan)
        return plan.total_cost


class ReplicaSet:
    """A primary plus N-1 replicas sharing one :class:`Database` object.

    Schema (and therefore the index configuration), statistics, cost
    parameters and optimizer switches are the primary's: index DDL or a
    setting changed on the primary reaches every replica at once,
    mirroring replicated DDL and configuration.  Each replica keeps its
    own monitor and plan cache.
    """

    def __init__(self, db: Database, n_replicas: int = 3):
        if n_replicas < 1:
            raise ValueError("need at least one replica")
        self.replicas = [
            Replica(f"{db.name}-r{i}", db) for i in range(n_replicas)
        ]
        self._next_read = 0

    @property
    def primary(self) -> Replica:
        return self.replicas[0]

    def serve_read(self, query: WorkloadQuery) -> float:
        """Round-robin a read across replicas."""
        replica = self.replicas[self._next_read % len(self.replicas)]
        self._next_read += 1
        return replica.serve(query)

    def serve_write(self, query: WorkloadQuery) -> float:
        """A write executes on every replica; returns total fleet cost."""
        return sum(replica.serve(query) for replica in self.replicas)

    def serve(self, query: WorkloadQuery) -> float:
        if query.is_dml:
            return self.serve_write(query)
        return self.serve_read(query)

