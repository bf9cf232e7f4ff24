"""Continuous statistics export (paper Sec. VII-A).

A daemon periodically queries every machine of a replica set and exports
per-query statistics through a pub-sub channel into a central warehouse,
where "complex analytics can be run almost instantaneously".  The
warehouse here is simply an aggregated :class:`WorkloadMonitor` per
database.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..obs import WorkloadDigest, emit
from ..workload import QueryStatistics, WorkloadMonitor
from .replica import ReplicaSet


@dataclass
class PubSubChannel:
    """A minimal in-process pub-sub topic (the Kafka stand-in)."""

    subscribers: list[Callable[[str, list[QueryStatistics]], None]] = field(
        default_factory=list
    )
    published: int = 0

    def subscribe(
        self, callback: Callable[[str, list[QueryStatistics]], None]
    ) -> None:
        self.subscribers.append(callback)

    def publish(self, database: str, records: list[QueryStatistics]) -> None:
        self.published += len(records)
        for callback in self.subscribers:
            callback(database, records)


class StatsWarehouse:
    """Central store of aggregated workload statistics per database."""

    def __init__(self) -> None:
        self.monitors: dict[str, WorkloadMonitor] = {}

    def ingest(self, database: str, records: list[QueryStatistics]) -> None:
        monitor = self.monitors.setdefault(database, WorkloadMonitor())
        staging = WorkloadMonitor()
        for record in records:
            staging.stats[record.normalized_sql] = record
        monitor.merge(staging)

    def monitor_for(self, database: str) -> WorkloadMonitor:
        return self.monitors.setdefault(database, WorkloadMonitor())


class StatsExportDaemon:
    """Periodically drains replica monitors into the warehouse."""

    def __init__(
        self,
        database: str,
        replica_set: ReplicaSet,
        channel: PubSubChannel,
    ):
        self.database = database
        self.replica_set = replica_set
        self.channel = channel
        self.export_runs = 0

    def run_once(self) -> int:
        """One export interval: drain every replica's monitor.

        Returns the number of exported records.  Replica monitors reset
        after export (per-interval statistics, like a statement digest
        flush).  Each non-empty window also journals a
        ``workload_digest`` event summarizing what was exported.
        """
        exported = 0
        window = WorkloadMonitor()
        for replica in self.replica_set.replicas:
            records = list(replica.monitor.stats.values())
            if records:
                self.channel.publish(self.database, records)
                exported += len(records)
                window.merge(replica.monitor)
            replica.monitor.clear()
        if exported:
            emit(
                WorkloadDigest(
                    database=self.database,
                    window=self.export_runs,
                    **window.digest(),
                )
            )
        self.export_runs += 1
        return exported
