"""Execution accounting.

Every executor run produces an :class:`ExecutionMetrics`: the raw counters
a DBMS exposes per statement (rows read / rows sent, page I/O, index
maintenance work).  The workload monitor converts these into the paper's
quantities: ``cpu_avg`` (Sec. III-C, including IOWAIT) and the discarded
data ratio ``ddr`` (Sec. III-A2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .pages import CostParams


@dataclass
class ExecutionMetrics:
    """Mutable per-statement counters, accumulated by executor operators."""

    rows_read: int = 0          # rows fetched from base tables / indexes
    rows_sent: int = 0          # rows returned to the client
    seq_pages: int = 0          # sequentially read pages
    random_pages: int = 0       # randomly sought pages (PK lookups, probes)
    index_entries_read: int = 0
    index_entries_written: int = 0  # maintenance work on DML
    pages_written: int = 0
    sort_rows: int = 0          # rows passed through explicit sorts
    predicate_evals: int = 0

    def cpu_seconds(self, params: CostParams) -> float:
        """Total cost in cost units (interpreted as CPU seconds incl. IOWAIT)."""
        sort_cost = 0.0
        if self.sort_rows > 1:
            sort_cost = params.sort_unit_cost * self.sort_rows * math.log2(self.sort_rows)
        return (
            self.seq_pages * params.seq_page_cost
            + self.random_pages * params.random_page_cost
            + self.rows_read * params.cpu_tuple_cost
            + self.index_entries_read * params.cpu_index_tuple_cost
            + self.predicate_evals * params.cpu_operator_cost
            + self.index_entries_written
            * params.write_page_cost
            * params.write_amplification
            + self.pages_written * params.write_page_cost
            + sort_cost
        )

    def as_dict(self) -> dict[str, int]:
        """All counters as a plain dict (telemetry export, stats export)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def merge(self, other: "ExecutionMetrics") -> None:
        """Accumulate counters from another metrics object."""
        self.rows_read += other.rows_read
        self.rows_sent += other.rows_sent
        self.seq_pages += other.seq_pages
        self.random_pages += other.random_pages
        self.index_entries_read += other.index_entries_read
        self.index_entries_written += other.index_entries_written
        self.pages_written += other.pages_written
        self.sort_rows += other.sort_rows
        self.predicate_evals += other.predicate_evals
