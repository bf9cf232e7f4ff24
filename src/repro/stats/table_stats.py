"""Per-table statistics and the statistics catalog."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

from .column_stats import ColumnStats

#: Source of :attr:`StatsCatalog.epoch` values, shared by every catalog.
_EPOCHS = count(1)


@dataclass
class TableStats:
    """Statistics for one table.

    Attributes:
        row_count: estimated number of rows.
        columns: per-column distribution stats.
    """

    row_count: int = 0
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStats:
        """Stats for a column; an uninformative default if never analyzed."""
        return self.columns.get(name, ColumnStats())

    def distinct_values(self, column_names: tuple[str, ...]) -> int:
        """Estimated NDV of a column combination.

        Uses the independence product of per-column NDVs, damped and capped
        at the row count.  The damping exponent acknowledges real-world
        correlation between co-indexed columns (full independence wildly
        overestimates combined NDV).
        """
        if not column_names:
            return 1
        if self.row_count <= 0:
            return 1
        product = 1.0
        for name in column_names:
            product *= max(1, self.column(name).ndv)
            if product >= self.row_count:
                return self.row_count
        # Damp: combined NDV grows sub-multiplicatively with extra columns.
        damped = product ** (0.5 + 0.5 / len(column_names))
        return max(1, min(self.row_count, int(damped)))


@dataclass
class StatsCatalog:
    """Statistics for every table in a schema.

    Dataless indexes (paper Sec. III-A4) are backed entirely by this
    catalog: the optimizer estimates index scan costs from column NDVs and
    histograms without any materialized index data.
    """

    tables: dict[str, TableStats] = field(default_factory=dict)
    #: Changes whenever :meth:`set_table` installs statistics, so a plan
    #: cache keyed on it never serves a plan costed on older statistics.
    #: Values are unique across catalogs: a database given another catalog
    #: also shows another epoch.
    epoch: int = field(
        default_factory=_EPOCHS.__next__, init=False, compare=False, repr=False
    )

    def table(self, name: str) -> TableStats:
        """Stats for a table; empty stats if never analyzed."""
        if name not in self.tables:
            self.tables[name] = TableStats()
        return self.tables[name]

    def set_table(self, name: str, stats: TableStats) -> None:
        self.tables[name] = stats
        self.epoch = next(_EPOCHS)

    def row_count(self, table: str) -> int:
        return self.table(table).row_count
