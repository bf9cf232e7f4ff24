"""The Database facade: schema + statistics + (optional) row storage.

Two operating modes, matching how the paper's experiments use databases:

* **stats-only** -- no row data; the optimizer works purely from the
  statistics catalog.  This is the mode for the estimated-cost experiments
  (Fig 4/5) and for every what-if evaluation, whose dataless indexes are
  planner arguments and never enter the catalog.
* **stored** -- rows are materialized and the executor can run statements.
  Used by the replay experiments (Fig 3/6) and integration tests.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional, Sequence

from ..catalog import Index, Schema, Table
from ..stats import StatsCatalog, TableStats, analyze_table
from .pages import INNODB, CostParams
from .storage import TableStorage


def _default_switches():
    # Imported lazily to keep engine/ free of an optimizer dependency at
    # import time (optimizer imports engine.pages).
    from ..optimizer.switches import DEFAULT_SWITCHES

    return DEFAULT_SWITCHES


class Database:
    """A database instance the advisor and executor operate on."""

    def __init__(
        self,
        schema: Schema,
        params: CostParams = INNODB,
        with_storage: bool = True,
        name: str = "db",
    ):
        self.name = name
        self.schema = schema
        self.params = params
        self.stats = StatsCatalog()
        self.switches = _default_switches()
        self.storage: Optional[dict[str, TableStorage]] = None
        if with_storage:
            self.storage = {t.name: TableStorage(t) for t in schema}
            # Indexes the schema declares (DDL) exist in storage from the
            # start; load_rows and DML keep them current.
            for index in schema.indexes():
                self.storage[index.table].build_index(index)

    @classmethod
    def from_tables(
        cls,
        tables: Iterable[Table],
        params: CostParams = INNODB,
        with_storage: bool = True,
        name: str = "db",
    ) -> "Database":
        return cls(Schema.from_tables(tables), params, with_storage, name)

    # -- data loading -------------------------------------------------------

    def load_rows(self, table: str, rows: Iterable[Mapping[str, Any]]) -> int:
        """Bulk load rows into a stored table; returns the number loaded.

        The rows are appended, then the table's PK index and every
        materialized index on it are rebuilt over all of its rows.
        """
        return self._storage_for(table).load(rows)

    def load_columns(self, table: str, columns: Mapping[str, Sequence[Any]]) -> int:
        """:meth:`load_rows` for rows given column-wise: *columns* maps each
        column to the new rows' values, in order; a column it lacks is
        NULL.  Raises ``StorageError`` for an unknown column or lists of
        unequal length, and then loads nothing."""
        return self._storage_for(table).load_columns(columns)

    def analyze(self, tables: Optional[Iterable[str]] = None) -> None:
        """Refresh the statistics catalog from stored data (ANALYZE TABLE)."""
        if self.storage is None:
            raise RuntimeError("analyze() requires a stored database")
        names = list(tables) if tables is not None else list(self.schema.tables)
        for name in names:
            storage = self._storage_for(name)
            by_column = {
                col: storage.column_values(col)
                for col in storage.table.column_names
            }
            self.stats.set_table(name, analyze_table(by_column))

    def set_stats(self, table: str, stats: TableStats) -> None:
        """Install synthetic statistics (stats-only benchmarks)."""
        self.stats.set_table(table, stats)

    @property
    def plan_version(self) -> tuple:
        """Every planner input but the statement and a hypothetical
        configuration; a plan cache drops its plans when this changes."""
        return (self.schema.index_version, self.stats.epoch, self.switches, self.params)

    # -- index DDL -----------------------------------------------------------

    def create_index(self, index: Index) -> Index:
        """Create (build) an index; a dataless index raises ``CatalogError``."""
        registered = self.schema.add_index(index)
        if self.storage is not None:
            self._storage_for(index.table).build_index(index)
        return registered

    def drop_index(self, index: Index | str) -> None:
        name = index if isinstance(index, str) else index.name
        existing = self.schema.get_index(name)
        self.schema.drop_index(name)
        if existing is not None and self.storage is not None:
            self._storage_for(existing.table).drop_index(name)

    def drop_all_secondary_indexes(self) -> list[Index]:
        """Drop every secondary index; returns what was dropped.

        This is the starting state of the bootstrapping experiments
        (Fig 3: "secondary indexes dropped").
        """
        dropped = list(self.schema.indexes())
        for index in dropped:
            self.drop_index(index)
        return dropped

    # -- size accounting ----------------------------------------------------

    def index_size_bytes(self, index: Index) -> int:
        """Estimated on-disk size of an index from current statistics."""
        table = self.schema.table(index.table)
        rows = self.stats.row_count(index.table)
        fill_factor = 0.75   # b-tree pages are ~3/4 full in steady state
        return int(rows * index.entry_width(table) / fill_factor)

    def total_secondary_index_bytes(self) -> int:
        return sum(self.index_size_bytes(idx) for idx in self.schema.indexes())

    def table_size_bytes(self, table: str) -> int:
        rows = self.stats.row_count(table)
        return rows * self.schema.table(table).row_width

    # -- cloning --------------------------------------------------------------

    def stats_clone(self, name: Optional[str] = None) -> "Database":
        """A stats-only clone sharing statistics but owning its index set.

        The uncached references in tests and benchmarks plan on one with
        its secondary indexes dropped, independently of the what-if
        evaluator, which plans on the database itself.  Index DDL on the
        clone never affects this database.  Its cost parameters and
        switches are the ones set now; a later change here does not
        reach it.
        """
        clone = Database(
            self.schema.copy(),
            self.params,
            with_storage=False,
            name=name or f"{self.name}-clone",
        )
        clone.stats = self.stats
        clone.switches = self.switches
        return clone

    def full_clone(self, name: Optional[str] = None) -> "Database":
        """A deep clone with copied rows and rebuilt indexes.

        Nothing in the advisor or fleet path takes one; the stored-row and
        built-index digest checks and their tests do.
        """
        if self.storage is None:
            return self.stats_clone(name)
        clone = Database(
            self.schema.copy(),
            self.params,
            with_storage=True,
            name=name or f"{self.name}-shadow",
        )
        clone.stats = self.stats
        clone.switches = self.switches
        # The clone's row ids are compact: tombstones are not copied.
        for table_name, storage in self.storage.items():
            clone.storage[table_name].load_columns({
                name: storage.column_values(name) for name in storage.columns
            })
        return clone

    # -- internals ----------------------------------------------------------

    def _storage_for(self, table: str) -> TableStorage:
        if self.storage is None:
            raise RuntimeError(f"database {self.name} has no storage")
        try:
            return self.storage[table]
        except KeyError:
            raise KeyError(f"no table named {table!r}") from None
