"""Row storage with index maintenance.

Each :class:`TableStorage` keeps rows as dicts addressed by a synthetic
row id, a clustered primary key index, and one :class:`SortedIndex` per
materialized secondary index.  All row-level mutation paths account their
index maintenance work in the supplied :class:`ExecutionMetrics`, which is
what Eq. 8's ``cost_u`` is measured from.  Bulk loads and CREATE INDEX
build indexes column-wise with :meth:`SortedIndex.build`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Iterable, Mapping, Optional

from ..catalog import Index, Table
from .btree import SortedIndex
from .metrics import ExecutionMetrics


class StorageError(RuntimeError):
    """Raised on invalid storage operations."""


class TableStorage:
    """In-memory row store for one table."""

    def __init__(self, table: Table):
        self.table = table
        self.rows: dict[int, dict[str, Any]] = {}
        self._next_id = 0
        self.pk_index = SortedIndex(len(table.primary_key))
        self.secondary: dict[str, SortedIndex] = {}
        self.secondary_meta: dict[str, Index] = {}

    # -- row level operations -------------------------------------------------

    def load(self, rows: Iterable[Mapping[str, Any]]) -> int:
        """Append *rows*, then rebuild the PK index and every secondary
        index over all rows; returns the number of rows appended.

        A bulk load pays one column-wise build per index rather than a
        sorted insert per row and index.  Charges no metrics.
        """
        columns = self.table.column_names
        row_id = first = self._next_id
        for row in rows:
            self.rows[row_id] = {name: row.get(name) for name in columns}
            row_id += 1
        self._next_id = row_id
        self.pk_index = self._build(None)
        for name, meta in self.secondary_meta.items():
            self.secondary[name] = self._build(meta)
        return row_id - first

    def insert_row(
        self, row: Mapping[str, Any], metrics: Optional[ExecutionMetrics] = None
    ) -> int:
        """Insert a row; maintains the PK and every secondary index."""
        stored = {name: row.get(name) for name in self.table.column_names}
        row_id = self._next_id
        self._next_id += 1
        self.rows[row_id] = stored
        self.pk_index.insert(self._pk_key(stored), row_id)
        for name, index in self.secondary.items():
            index.insert(self._index_key(self.secondary_meta[name], stored), row_id)
        if metrics is not None:
            metrics.index_entries_written += 1 + len(self.secondary)
        return row_id

    def delete_row(
        self, row_id: int, metrics: Optional[ExecutionMetrics] = None
    ) -> None:
        """Delete a row by id; maintains all indexes."""
        stored = self.rows.pop(row_id, None)
        if stored is None:
            raise StorageError(f"no row {row_id} in table {self.table.name}")
        self.pk_index.delete(self._pk_key(stored), row_id)
        for name, index in self.secondary.items():
            index.delete(self._index_key(self.secondary_meta[name], stored), row_id)
        if metrics is not None:
            metrics.index_entries_written += 1 + len(self.secondary)

    def update_row(
        self,
        row_id: int,
        changes: Mapping[str, Any],
        metrics: Optional[ExecutionMetrics] = None,
    ) -> None:
        """Update columns of a row; only affected indexes pay maintenance."""
        stored = self.rows.get(row_id)
        if stored is None:
            raise StorageError(f"no row {row_id} in table {self.table.name}")
        touched = set(changes)
        written = 0
        pk_changed = bool(touched & set(self.table.primary_key))
        if pk_changed:
            self.pk_index.delete(self._pk_key(stored), row_id)
            written += 1
        # Every secondary key ends with the PK, so a PK change re-keys all.
        affected = [
            name
            for name, meta in self.secondary_meta.items()
            if pk_changed or touched & set(meta.columns)
        ]
        for name in affected:
            self.secondary[name].delete(
                self._index_key(self.secondary_meta[name], stored), row_id
            )
        stored.update({k: v for k, v in changes.items() if self.table.has_column(k)})
        if pk_changed:
            self.pk_index.insert(self._pk_key(stored), row_id)
        for name in affected:
            self.secondary[name].insert(
                self._index_key(self.secondary_meta[name], stored), row_id
            )
            written += 1
        if metrics is not None:
            # One in-place row write even when no index key changed.
            metrics.index_entries_written += max(1, written * 2)

    def get_row(self, row_id: int) -> dict[str, Any]:
        return self.rows[row_id]

    @property
    def row_count(self) -> int:
        return len(self.rows)

    # -- index management ------------------------------------------------------

    def build_index(self, index: Index) -> SortedIndex:
        """Materialize a secondary index over the current rows; idempotent."""
        if index.table != self.table.name:
            raise StorageError(
                f"index targets {index.table}, storage is {self.table.name}"
            )
        if index.name in self.secondary:
            return self.secondary[index.name]
        structure = self._build(index)
        self.secondary[index.name] = structure
        self.secondary_meta[index.name] = index
        return structure

    def drop_index(self, index: Index | str) -> None:
        name = index if isinstance(index, str) else index.name
        self.secondary.pop(name, None)
        self.secondary_meta.pop(name, None)

    def get_index(self, name: str) -> Optional[SortedIndex]:
        return self.secondary.get(name)

    def column_values(self, column: str) -> list:
        """All values of one column (ANALYZE input)."""
        return [row.get(column) for row in self.rows.values()]

    def _build(self, index: Optional[Index]) -> SortedIndex:
        """The PK index (*index* None) or a secondary *index*, built over
        the current rows.

        The PK build starts from ascending row ids (the order ``rows``
        holds them in: ids are allocated ascending and never reused).  A
        secondary key is its columns followed by the PK, so its build
        starts from the PK index's ``(PK, row id)`` order and reuses the
        PK index's flat keys as the key tail.
        """
        if index is None:
            names, row_ids, suffix = self.table.primary_key, list(self.rows), None
            rows = list(self.rows.values())
        else:
            pk = self.pk_index
            names, row_ids, suffix = index.columns, pk.rids, pk.keys
            rows = list(map(self.rows.__getitem__, row_ids))
        # Stored rows hold every column.
        columns = [list(map(itemgetter(name), rows)) for name in names]
        return SortedIndex.build(columns, row_ids, suffix)

    # -- key extraction ----------------------------------------------------------

    def _pk_key(self, row: Mapping[str, Any]) -> tuple:
        return tuple(row.get(c) for c in self.table.primary_key)

    def _index_key(self, index: Index, row: Mapping[str, Any]) -> tuple:
        # Secondary keys append the PK for uniqueness / ordering stability.
        return tuple(row.get(c) for c in index.columns) + self._pk_key(row)
