"""Workload query and statement-statistics records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..catalog import Schema
from ..optimizer.analysis_cache import analyze_cached
from ..optimizer.query_info import QueryInfo
from ..sqlparser import ast, normalize_statement, parse


@dataclass
class WorkloadQuery:
    """One (normalized) query of a workload with its weight ``w_q``.

    The weight follows the paper's definition (Sec. II): execution
    frequency, CPU share, or a manually assigned importance.
    """

    sql: str
    weight: float = 1.0
    name: str = ""

    _stmt: Optional[ast.Statement] = field(default=None, repr=False, compare=False)
    _normalized_sql: Optional[str] = field(default=None, repr=False, compare=False)

    @property
    def stmt(self) -> ast.Statement:
        if self._stmt is None:
            self._stmt = parse(self.sql)
        return self._stmt

    def analyze(self, schema: Schema) -> QueryInfo:
        """Parse and resolve against *schema* through the interned analysis
        cache, keeping the parsed statement, so neither step runs again."""
        info = analyze_cached(schema, self.sql)
        if self._stmt is None:
            self._stmt = info.stmt
        return info

    @property
    def normalized_sql(self) -> str:
        # Memoized: advisors key per-query candidate maps on it, so it is
        # recomputed many times per query per run otherwise.
        if self._normalized_sql is None:
            self._normalized_sql = normalize_statement(self.stmt).to_sql()
        return self._normalized_sql

    @property
    def is_dml(self) -> bool:
        return isinstance(self.stmt, (ast.Insert, ast.Update, ast.Delete))


@dataclass
class QueryStatistics:
    """Aggregated execution statistics for one normalized query.

    This is the record the workload monitor exports (paper Sec. III-C):
    executions, CPU cost (including IOWAIT) and the rows read/sent that
    define the discarded data ratio.
    """

    normalized_sql: str
    executions: int = 0
    total_cpu: float = 0.0
    rows_read: int = 0
    rows_sent: int = 0
    example_sql: str = ""        # a concrete instance, for re-planning

    @property
    def cpu_avg(self) -> float:
        """Average CPU seconds per execution (``cpu_avg`` of Eq. 5)."""
        if self.executions == 0:
            return 0.0
        return self.total_cpu / self.executions

    @property
    def ddr_avg(self) -> float:
        """Discarded data ratio (Sec. III-A2): the ratio of data *sent* to
        data *read*, averaged across executions.  1.0 means every row read
        was returned; values near 0 mean almost all I/O was wasted."""
        if self.rows_read <= 0:
            return 1.0
        return min(1.0, max(0.0, self.rows_sent / self.rows_read))

    @property
    def expected_benefit(self) -> float:
        """Optimistic expected benefit ``B`` of Eq. 5:
        ``B = (1 - ddr_avg) * cpu_avg``.  Assumes all I/O not returned in
        the result set could be avoided by proper index structures."""
        return (1.0 - self.ddr_avg) * self.cpu_avg

    def record(self, cpu: float, rows_read: int, rows_sent: int) -> None:
        self.executions += 1
        self.total_cpu += cpu
        self.rows_read += rows_read
        self.rows_sent += rows_sent

    def merge(self, other: "QueryStatistics") -> None:
        """Aggregate statistics from another replica (Sec. VII-A)."""
        if other.normalized_sql != self.normalized_sql:
            raise ValueError("cannot merge statistics of different queries")
        self.executions += other.executions
        self.total_cpu += other.total_cpu
        self.rows_read += other.rows_read
        self.rows_sent += other.rows_sent
        if not self.example_sql:
            self.example_sql = other.example_sql
