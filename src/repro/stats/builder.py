"""Statistics builders: from stored data (ANALYZE) or synthetic specs.

Synthetic specs let benchmarks describe multi-gigabyte tables (TPC-H SF 10,
JOB) by their statistical shape alone -- the paper's estimated-cost
experiments never touch row data, only optimizer statistics, so this is a
faithful substitute for loading the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .column_stats import ColumnStats
from .histogram import Histogram
from .table_stats import StatsCatalog, TableStats


def analyze_column(values: Sequence) -> ColumnStats:
    """Compute column stats from raw values (the ANALYZE path)."""
    total = len(values)
    if total == 0:
        return ColumnStats()
    # At most one NULL filter and one sort; the sorted copy feeds both
    # the NDV count and the histogram.
    ordered = sorted([v for v in values if v is not None] if None in values else values)
    return ColumnStats(
        ndv=max(1, len(set(ordered))),
        null_frac=(total - len(ordered)) / total,
        histogram=Histogram.from_sorted(ordered),
    )


def analyze_table(rows_by_column: Mapping[str, Sequence]) -> TableStats:
    """Compute table stats from a column-name -> values mapping."""
    columns = {name: analyze_column(values) for name, values in rows_by_column.items()}
    row_count = max((len(v) for v in rows_by_column.values()), default=0)
    return TableStats(row_count=row_count, columns=columns)


@dataclass(frozen=True)
class SyntheticColumn:
    """Statistical description of a column for stats-only benchmarks.

    Attributes:
        ndv: distinct values; ``-1`` means "unique per row".
        null_frac: NULL fraction.
        lo, hi: numeric domain bounds used to synthesize a uniform
            histogram so range predicates estimate sensibly.
    """

    ndv: int = -1
    null_frac: float = 0.0
    lo: float = 0.0
    hi: float = 1_000_000.0


def synthesize_table(
    row_count: int, columns: Mapping[str, SyntheticColumn]
) -> TableStats:
    """Build TableStats from synthetic per-column descriptions."""
    stats: dict[str, ColumnStats] = {}
    for name, spec in columns.items():
        ndv = row_count if spec.ndv == -1 else min(spec.ndv, max(1, row_count))
        histogram = _uniform_histogram(spec.lo, spec.hi)
        stats[name] = ColumnStats(
            ndv=max(1, ndv), null_frac=spec.null_frac, histogram=histogram
        )
    return TableStats(row_count=row_count, columns=stats)


def _uniform_histogram(lo: float, hi: float, buckets: int = 64) -> Histogram:
    if hi <= lo:
        return Histogram((lo,))
    step = (hi - lo) / buckets
    return Histogram(tuple(lo + i * step for i in range(buckets + 1)))
