"""Centralized tuning coordinator (paper Sec. VIII-c).

"The AIM process does not run on individual database hosts and a
centralized coordinator kicks off the tuning process for a database if it
detects inefficient queries."  The coordinator watches the statistics
warehouse and triggers a :class:`~repro.core.ContinuousTuner` cycle for
any database whose top queries cross the expected-benefit threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core import AimConfig, ContinuousTuner, TuningCycleResult
from ..engine import Database
from ..obs import IndexRollback, emit, trace
from ..workload import SelectionPolicy
from .regression import ContinuousRegressionDetector
from .replica import ReplicaSet
from .stats_export import StatsWarehouse


@dataclass
class ManagedDatabase:
    """One database under the coordinator's management."""

    name: str
    replica_set: ReplicaSet
    tuner: ContinuousTuner
    detector: ContinuousRegressionDetector = field(
        default_factory=ContinuousRegressionDetector
    )


class FleetCoordinator:
    """Kicks off tuning for databases with inefficient queries."""

    def __init__(
        self,
        warehouse: StatsWarehouse,
        budget_bytes: int,
        config: AimConfig = AimConfig(),
        selection: SelectionPolicy = SelectionPolicy(),
    ):
        self.warehouse = warehouse
        self.budget_bytes = budget_bytes
        self.config = config
        self.selection = selection
        self.managed: dict[str, ManagedDatabase] = {}

    def register(self, name: str, replica_set: ReplicaSet) -> ManagedDatabase:
        tuner = ContinuousTuner(
            replica_set.primary.db,
            self.budget_bytes,
            config=self.config,
            monitor=self.warehouse.monitor_for(name),
            selection=self.selection,
        )
        managed = ManagedDatabase(name, replica_set, tuner)
        self.managed[name] = managed
        return managed

    def needs_tuning(self, name: str) -> bool:
        """True if any query crosses the benefit threshold (Eq. 5)."""
        monitor = self.warehouse.monitor_for(name)
        for stats in monitor.top_by_benefit(limit=5):
            if (
                stats.executions >= self.selection.min_executions
                and stats.expected_benefit >= self.selection.min_benefit
            ):
                return True
        return False

    def scan_and_tune(self) -> dict[str, TuningCycleResult]:
        """One coordinator sweep over the fleet."""
        results: dict[str, TuningCycleResult] = {}
        with trace("fleet.scan_and_tune", managed=len(self.managed)) as span:
            for name, managed in self.managed.items():
                if not self.needs_tuning(name):
                    continue
                with trace("fleet.tuning_cycle", database=name):
                    result = managed.tuner.run_cycle()
                for index in result.created:
                    managed.detector.note_index_created(index)
                results[name] = result
            span.set(tuned=len(results))
        return results

    def check_regressions(self, name: str) -> list:
        """Run the regression detector over the latest stats window and
        revert flagged automation-added indexes."""
        managed = self.managed[name]
        monitor = self.warehouse.monitor_for(name)
        with trace("fleet.check_regressions", database=name) as span:
            events = managed.detector.observe_window(monitor, database=name)
            flagged = managed.detector.flagged_for_removal(events)
            for index in flagged:
                managed.replica_set.primary.db.drop_index(index)
                emit(
                    IndexRollback(
                        index=index.name,
                        table=index.table,
                        database=name,
                        reason="regression",
                    )
                )
            span.set(events=len(events), reverted=len(flagged))
        return events
