"""Data distribution statistics: histograms, column/table stats, builders."""

from .builder import (
    SyntheticColumn,
    analyze_column,
    analyze_table,
    synthesize_table,
)
from .column_stats import ColumnStats
from .histogram import Histogram
from .table_stats import StatsCatalog, TableStats

__all__ = [
    "Histogram",
    "ColumnStats",
    "TableStats",
    "StatsCatalog",
    "analyze_column",
    "analyze_table",
    "synthesize_table",
    "SyntheticColumn",
]
