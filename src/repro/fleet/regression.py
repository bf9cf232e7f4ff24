"""Continuous regression detector (paper Sec. VII-C).

An independent, off-host process watching per-normalized-query average
CPU time across time windows.  If a query regresses after automation
added an index, the index is flagged for removal -- the safety net behind
the "no regression" guarantee, indispensable because "some portions of
the workload may repeat after a very long duration" (Sec. VIII-c).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..catalog import Index
from ..obs import RegressionFlagged, emit
from ..sqlparser import ast, parse
from ..workload import WorkloadMonitor


def _referenced_tables(*sql_texts: str) -> set[str]:
    """Table names a query actually references, from its parsed AST.

    Substring matching (``idx.table in sql``) false-positives whenever a
    table's name happens to occur inside another identifier or a string
    literal (``user`` vs ``user_events``), mis-attributing regressions to
    innocent indexes.  Parsing sidesteps that; unparseable text
    contributes nothing.
    """
    tables: set[str] = set()
    for sql in sql_texts:
        if not sql:
            continue
        try:
            stmt = parse(sql)
        except Exception:
            continue
        if isinstance(stmt, ast.Select):
            tables.update(ref.name for ref in stmt.all_table_refs())
        elif isinstance(stmt, (ast.Insert, ast.Update, ast.Delete)):
            tables.add(stmt.table.name)
    return tables


@dataclass
class RegressionEvent:
    """One detected regression."""

    normalized_sql: str
    before_cpu_avg: float
    after_cpu_avg: float
    suspect_indexes: list[Index] = field(default_factory=list)

    @property
    def ratio(self) -> float:
        if self.before_cpu_avg <= 0:
            return 1.0
        return self.after_cpu_avg / self.before_cpu_avg


class ContinuousRegressionDetector:
    """Window-over-window cpu_avg comparison with index attribution."""

    def __init__(self, regression_threshold: float = 1.5, suspect_windows: int = 4):
        self.regression_threshold = regression_threshold
        self.suspect_windows = suspect_windows
        self._baseline: dict[str, float] = {}
        self._recent_ddl: dict[str, tuple[Index, int]] = {}

    def note_index_created(self, index: Index) -> None:
        """Record automation-driven DDL for suspect attribution.

        The index stays on the suspect list for ``suspect_windows``
        observation windows -- long enough to catch regressions from
        workload portions that repeat with a long period (Sec. VIII-c).
        """
        self._recent_ddl[index.name] = (index, self.suspect_windows)

    def observe_window(
        self, monitor: WorkloadMonitor, database: str = ""
    ) -> list[RegressionEvent]:
        """Compare this window's cpu_avg per query with the baseline.

        The baseline updates to the current window afterwards (rolling);
        recently created indexes are attached to any regression whose
        query *references* their table (parsed, not substring-matched)
        and age off the suspect list after ``suspect_windows`` windows.
        Each detected regression is journaled as a ``regression_flagged``
        event.
        """
        events: list[RegressionEvent] = []
        current: dict[str, float] = {}
        recent = [entry[0] for entry in self._recent_ddl.values()]
        for normalized, stats in monitor.stats.items():
            if stats.executions == 0:
                continue
            current[normalized] = stats.cpu_avg
            baseline = self._baseline.get(normalized)
            if baseline is None or baseline <= 0:
                continue
            if stats.cpu_avg > baseline * self.regression_threshold:
                tables = _referenced_tables(normalized, stats.example_sql)
                suspects = [idx for idx in recent if idx.table in tables]
                event = RegressionEvent(
                    normalized_sql=normalized,
                    before_cpu_avg=baseline,
                    after_cpu_avg=stats.cpu_avg,
                    suspect_indexes=suspects or recent,
                )
                events.append(event)
                emit(
                    RegressionFlagged(
                        normalized_sql=normalized,
                        before_cpu_avg=baseline,
                        after_cpu_avg=stats.cpu_avg,
                        ratio=event.ratio,
                        suspects=tuple(
                            idx.name for idx in event.suspect_indexes
                        ),
                        database=database,
                    )
                )
        self._baseline.update(current)
        # Age the suspect list.
        aged: dict[str, tuple[Index, int]] = {}
        for name, (index, remaining) in self._recent_ddl.items():
            if remaining > 1:
                aged[name] = (index, remaining - 1)
        self._recent_ddl = aged
        return events

    def flagged_for_removal(self, events: list[RegressionEvent]) -> list[Index]:
        """Deduplicated suspect indexes across events."""
        seen: dict[str, Index] = {}
        for event in events:
            for index in event.suspect_indexes:
                seen[index.name] = index
        return list(seen.values())
