"""Workload monitor: per-normalized-query execution statistics.

The monitor is the paper's statistics substrate (Sec. III-C, VII-A): every
statement execution is keyed by its normalized SQL and contributes CPU
cost, rows read and rows sent.  Two feeding modes exist:

* *measured*: wrap an :class:`~repro.executor.Executor` and record real
  execution metrics (replay experiments),
* *estimated*: record optimizer plans (stats-only experiments), where the
  plan's cost plays the role of measured CPU seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..engine import Database, ExecutionMetrics
from ..executor import ExecutionResult, Executor
from ..optimizer.plan import Plan
from ..sqlparser import normalize_sql, normalize_statement, parse
from .query import QueryStatistics


@dataclass
class WorkloadMonitor:
    """Aggregates execution statistics keyed by normalized query."""

    stats: dict[str, QueryStatistics] = field(default_factory=dict)

    def _entry(self, sql: str, normalized: Optional[str] = None) -> QueryStatistics:
        if normalized is None:
            normalized = normalize_sql(sql)
        entry = self.stats.get(normalized)
        if entry is None:
            entry = QueryStatistics(normalized_sql=normalized, example_sql=sql)
            self.stats[normalized] = entry
        if not entry.example_sql:
            entry.example_sql = sql
        return entry

    def record_execution(
        self,
        sql: str,
        metrics: ExecutionMetrics,
        cpu_seconds: float,
        normalized: Optional[str] = None,
    ) -> QueryStatistics:
        """Record one measured execution.

        *normalized*, when given, is *sql*'s normalized text; the monitor
        then neither parses nor renders the statement.
        """
        entry = self._entry(sql, normalized)
        entry.record(cpu_seconds, metrics.rows_read, metrics.rows_sent)
        return entry

    def record_plan(self, sql: str, plan: Plan) -> QueryStatistics:
        """Record one estimated execution from an optimizer plan."""
        entry = self._entry(sql)
        entry.record(
            plan.total_cost, int(plan.rows_examined), int(round(plan.rows_out))
        )
        return entry

    def top_by_benefit(self, limit: Optional[int] = None) -> list[QueryStatistics]:
        """Statistics ordered by expected benefit ``B`` (Eq. 5), descending."""
        ordered = sorted(
            self.stats.values(), key=lambda s: s.expected_benefit, reverse=True
        )
        return ordered[:limit] if limit is not None else ordered

    def merge(self, other: "WorkloadMonitor") -> None:
        """Merge statistics from another replica's monitor (Sec. VII-A)."""
        for normalized, entry in other.stats.items():
            mine = self.stats.get(normalized)
            if mine is None:
                self.stats[normalized] = replace(entry)
            else:
                mine.merge(entry)

    def digest(self, top: int = 5) -> dict:
        """Aggregate snapshot of the current window, shaped for the
        ``workload_digest`` journal event (see ``repro.obs.events``)."""
        entries = list(self.stats.values())
        return {
            "queries": len(entries),
            "executions": sum(s.executions for s in entries),
            "total_cpu": sum(s.total_cpu for s in entries),
            "rows_read": sum(s.rows_read for s in entries),
            "rows_sent": sum(s.rows_sent for s in entries),
            "top": tuple(
                {
                    "sql": s.normalized_sql,
                    "executions": s.executions,
                    "cpu_avg": s.cpu_avg,
                    "benefit": s.expected_benefit,
                }
                for s in self.top_by_benefit(limit=top)
            ),
        }

    def clear(self) -> None:
        self.stats.clear()


class MonitoredExecutor:
    """An executor wrapper feeding a :class:`WorkloadMonitor`."""

    def __init__(self, db: Database, monitor: Optional[WorkloadMonitor] = None):
        self.db = db
        self.executor = Executor(db)
        self.monitor = monitor or WorkloadMonitor()

    def execute(self, sql: str, analyze: bool = False) -> ExecutionResult:
        # Parsed and normalized once, for the executor's plan cache and the
        # monitor.
        stmt = parse(sql)
        normalized = normalize_statement(stmt).to_sql()
        result = self.executor.execute(stmt, analyze=analyze, normalized=normalized)
        cpu = result.metrics.cpu_seconds(self.db.params)
        self.monitor.record_execution(sql, result.metrics, cpu, normalized=normalized)
        return result
