"""Continuous index tuning (paper Sec. II-B, VI-D).

AIM achieves continuous tuning "naïvely" by running the advisor
periodically -- its runtime is low enough that this is practical.  The
tuner also detects and drops unused and prefix-redundant indexes
("It can also detect and drop (parts of) unused indexes", Sec. I-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..catalog import Index
from ..engine import Database
from ..obs import (
    CycleEnd,
    CycleStart,
    DdlApplied,
    WorkloadDigest,
    emit,
)
from ..optimizer import CostEvaluator
from ..workload import (
    SelectionPolicy,
    Workload,
    WorkloadMonitor,
    select_representative_workload,
)
from .advisor import AimAdvisor, AimConfig
from .explain import Recommendation


def find_unused_indexes(db: Database, workload: Workload) -> list[Index]:
    """Materialized indexes no plan of *workload* uses."""
    evaluator = CostEvaluator(db, include_schema_indexes=True)
    used: set[tuple] = set()
    for query in workload:
        used |= evaluator.plan(query.sql).used_index_keys
    return [idx for idx in db.schema.indexes() if idx.key not in used]


def find_prefix_redundant_indexes(db: Database) -> list[Index]:
    """Indexes whose key is a strict prefix of a wider index's key.

    The wider index can answer every query the narrower one can, so the
    narrower index is pure maintenance overhead ("drop (parts of) unused
    indexes").
    """
    indexes = db.schema.indexes()
    redundant = []
    for narrow in indexes:
        for wide in indexes:
            if narrow.key != wide.key and narrow.is_prefix_of(wide):
                redundant.append(narrow)
                break
    return redundant


@dataclass
class TuningCycleResult:
    """Outcome of one continuous tuning cycle."""

    recommendation: Optional[Recommendation] = None
    created: list[Index] = field(default_factory=list)
    dropped: list[Index] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return bool(self.created or self.dropped)


class ContinuousTuner:
    """Periodically re-tunes a database from live monitor statistics.

    One ``run_cycle()`` call corresponds to one configurable tuning
    interval in production: select the representative workload from the
    monitor, recommend changes *relative to the current configuration*,
    apply them, and garbage-collect unused indexes.
    """

    def __init__(
        self,
        db: Database,
        budget_bytes: int,
        config: AimConfig = AimConfig(),
        monitor: Optional[WorkloadMonitor] = None,
        selection: SelectionPolicy = SelectionPolicy(),
        drop_unused: bool = True,
    ):
        self.db = db
        self.budget_bytes = budget_bytes
        self.monitor = monitor or WorkloadMonitor()
        self.selection = selection
        self.drop_unused = drop_unused
        self.config = config
        self.history: list[TuningCycleResult] = []

    def run_cycle(self, workload: Optional[Workload] = None) -> TuningCycleResult:
        """One tuning interval: recommend, apply, clean up."""
        if workload is None:
            workload = select_representative_workload(self.monitor, self.selection)
        emit(
            CycleStart(
                database=self.db.name,
                queries=len(workload),
                budget_bytes=self.budget_bytes,
            )
        )
        if self.monitor.stats:
            emit(
                WorkloadDigest(
                    database=self.db.name,
                    window=len(self.history),
                    **self.monitor.digest(),
                )
            )
        result = TuningCycleResult()
        if len(workload):
            advisor = AimAdvisor(self.db, self.config, self.monitor)
            remaining = self.budget_bytes - self.db.total_secondary_index_bytes()
            # Gains are measured relative to the current indexes.
            recommendation = advisor.recommend(
                workload,
                max(0, remaining),
                evaluator=CostEvaluator(self.db, include_schema_indexes=True),
            )
            result.recommendation = recommendation
            for index in recommendation.indexes:
                if not self.db.schema.has_index(index):
                    self.db.create_index(index.materialized())
                    result.created.append(index)
                    self._emit_ddl("create", index)
        if self.drop_unused and workload is not None and len(workload):
            for index in find_prefix_redundant_indexes(self.db):
                self.db.drop_index(index)
                result.dropped.append(index)
                self._emit_ddl("drop", index)
            for index in find_unused_indexes(self.db, workload):
                self.db.drop_index(index)
                result.dropped.append(index)
                self._emit_ddl("drop", index)
        self.history.append(result)
        recommendation = result.recommendation
        emit(
            CycleEnd(
                database=self.db.name,
                created=tuple(idx.name for idx in result.created),
                dropped=tuple(idx.name for idx in result.dropped),
                cost_before=recommendation.cost_before if recommendation else 0.0,
                cost_after=recommendation.cost_after if recommendation else 0.0,
                improvement=recommendation.improvement if recommendation else 0.0,
                optimizer_calls=(
                    recommendation.optimizer_calls if recommendation else 0
                ),
            )
        )
        return result

    def _emit_ddl(self, action: str, index: Index) -> None:
        if action == "create":
            statement = index.create_statement()
        else:
            statement = f"DROP INDEX {index.name} ON {index.table}"
        emit(
            DdlApplied(
                action=action,
                index=index.name,
                table=index.table,
                columns=tuple(index.columns),
                database=self.db.name,
                statement=statement,
            )
        )
