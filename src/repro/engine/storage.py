"""Column-list table storage with index maintenance.

Each :class:`TableStorage` keeps one Python list per column, indexed by
row id: ids are allocated ascending and never reused, so a row id is its
slot in every list.  A delete leaves a tombstone -- ``alive[row_id]`` is 0
and the row's values are dropped -- so a scan walks id ranges and skips
tombstones, and no row moves.  A row dict is built only on request
(:meth:`TableStorage.row`, the read-only :attr:`TableStorage.rows` view).

The storage also holds a clustered primary key index and one
:class:`SortedIndex` per materialized secondary index.  An index stores
only row ids and reads every key value, its own columns and a secondary
index's PK tail, from the column lists.  So every row-level path touches
an index while the row still holds the values its entry was placed by:
it deletes entries before it changes or drops the row's values and
inserts them after it writes the new ones.  A write that adds a type to
a column's ``kinds`` has every index re-pick how it compares values
(:meth:`SortedIndex.retype`) before it inserts.  All row-level
mutation paths account their index maintenance work in the supplied
:class:`ExecutionMetrics`, which is what Eq. 8's ``cost_u`` is measured
from.  Bulk loads and CREATE INDEX build indexes column-wise with
:meth:`SortedIndex.build`.  The modeled I/O (page counts from the row
count and row width) stays that of a row store.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import compress, repeat
from typing import Any, Iterable, Iterator, Optional, Sequence

from ..catalog import Index, Table
from .btree import SortedIndex
from .metrics import ExecutionMetrics


class StorageError(RuntimeError):
    """Raised on invalid storage operations."""


class TableStorage:
    """In-memory column-list store for one table."""

    def __init__(self, table: Table):
        self.table = table
        #: Column name -> its values, indexed by row id (None at tombstones).
        self.columns: dict[str, list] = {name: [] for name in table.column_names}
        #: Column name -> the types of the values stored in it so far (a
        #: delete does not shrink it), so kernels can tell a column of
        #: only numbers or only strs.
        self.kinds: dict[str, set[type]] = {name: set() for name in self.columns}
        #: ``alive[row_id]`` is 1 for a stored row, 0 for a tombstone; its
        #: length is the next row id.
        self.alive = bytearray()
        self._count = 0
        self.rows = StoredRows(self)
        self.pk_index = SortedIndex(*self._index_columns(()))
        self.secondary: dict[str, SortedIndex] = {}
        self.secondary_meta: dict[str, Index] = {}

    # -- row level operations -------------------------------------------------

    def load(self, rows: Iterable[Mapping[str, Any]]) -> int:
        """Append *rows*, then rebuild the PK index and every secondary
        index over all rows; returns the number of rows appended.

        A bulk load pays one column-wise build per index rather than a
        sorted insert per row and index.  Charges no metrics.  Raises
        :class:`StorageError`, before anything is written, when a row
        names a column the table lacks.
        """
        rows = list(rows)
        unknown = set().union(*rows) - self.columns.keys()
        if unknown:
            raise StorageError(
                f"no column {min(unknown)!r} in table {self.table.name}"
            )
        return self.load_columns({
            name: [row.get(name) for row in rows]
            for name in self.table.column_names
        })

    def load_columns(self, values: Mapping[str, Iterable[Any]]) -> int:
        """:meth:`load` for rows given column-wise: *values* maps each
        column to the new rows' values, in order (a column it lacks is
        NULL).

        The caller hands its lists over: into a table that never held a
        row, a given list becomes the column itself, and a later write to
        the table changes it.  A list given for a second column is
        copied, and into a table that has row ids the values are
        appended.  A column given as any other iterable is made into a
        list once.  Raises :class:`StorageError`, before anything is
        written, when *values* names a column the table lacks or its
        columns differ in length.
        """
        values = {
            name: column if type(column) is list else list(column)
            for name, column in values.items()
        }
        unknown = values.keys() - self.columns.keys()
        if unknown:
            raise StorageError(
                f"no column {min(unknown)!r} in table {self.table.name}"
            )
        lengths = sorted({len(column) for column in values.values()})
        if len(lengths) > 1:
            raise StorageError(
                f"bulk load into {self.table.name} has columns of "
                f"{lengths[0]} and {lengths[-1]} values"
            )
        count = lengths[0] if lengths else 0
        adopt, adopted = not self.alive, set()
        for name, column in self.columns.items():
            added = values.get(name)
            if added is None:
                added = [None] * count
            if adopt and id(added) not in adopted:
                adopted.add(id(added))
                self.columns[name] = added
            else:
                column.extend(added)
            self.kinds[name].update(map(type, added))
        self.alive.extend(repeat(1, count))
        self._count += count
        self.pk_index = self._build(None)
        for name, meta in self.secondary_meta.items():
            self.secondary[name] = self._build(meta)
        return count

    def insert_row(
        self, row: Mapping[str, Any], metrics: Optional[ExecutionMetrics] = None
    ) -> int:
        """Insert a row; maintains the PK and every secondary index.

        Raises :class:`StorageError`, before anything is written, when
        *row* names a column the table lacks.
        """
        self._check_columns(row)
        row_id = len(self.alive)
        widened = False
        for name, column in self.columns.items():
            value = row.get(name)
            column.append(value)
            widened |= self._note_kind(name, value)
        self.alive.append(1)
        self._count += 1
        if widened:
            self._retype()
        self.pk_index.insert(row_id)
        for index in self.secondary.values():
            index.insert(row_id)
        if metrics is not None:
            metrics.index_entries_written += 1 + len(self.secondary)
        return row_id

    def delete_row(
        self, row_id: int, metrics: Optional[ExecutionMetrics] = None
    ) -> None:
        """Delete a row by id, leaving a tombstone; maintains all indexes."""
        self._check(row_id)
        self.pk_index.delete(row_id)
        for index in self.secondary.values():
            index.delete(row_id)
        for column in self.columns.values():
            column[row_id] = None
        self.alive[row_id] = 0
        self._count -= 1
        if metrics is not None:
            metrics.index_entries_written += 1 + len(self.secondary)

    def update_row(
        self,
        row_id: int,
        changes: Mapping[str, Any],
        metrics: Optional[ExecutionMetrics] = None,
    ) -> None:
        """Update columns of a row; only affected indexes pay maintenance.

        Raises :class:`StorageError`, before anything is written, when
        *changes* names a column the table lacks.
        """
        self._check(row_id)
        self._check_columns(changes)
        pk_changed = not changes.keys().isdisjoint(self.table.primary_key)
        # Every secondary index orders equal keys by the PK, so a PK
        # change moves the row in all of them.
        affected = [
            self.secondary[name]
            for name, meta in self.secondary_meta.items()
            if pk_changed or not changes.keys().isdisjoint(meta.columns)
        ]
        if pk_changed:
            affected.append(self.pk_index)
        for index in affected:
            index.delete(row_id)
        widened = False
        for name, value in changes.items():
            self.columns[name][row_id] = value
            widened |= self._note_kind(name, value)
        if widened:
            self._retype()
        for index in affected:
            index.insert(row_id)
        if metrics is not None:
            # One in-place row write even when no index key changed.
            metrics.index_entries_written += max(1, len(affected) * 2)

    def row(self, row_id: int) -> dict[str, Any]:
        """A new dict of the row's columns (the row must be stored)."""
        return {name: values[row_id] for name, values in self.columns.items()}

    def get_row(self, row_id: int) -> dict[str, Any]:
        self._check(row_id)
        return self.row(row_id)

    def is_stored(self, row_id: int) -> bool:
        return 0 <= row_id < len(self.alive) and self.alive[row_id] == 1

    @property
    def row_count(self) -> int:
        return self._count

    def live_ids(self) -> Sequence[int]:
        """Ids of the stored rows, ascending."""
        ids = range(len(self.alive))
        if self._count == len(ids):
            return ids
        return list(compress(ids, self.alive))

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
        """The stored rows' values of one column, in row-id order (ANALYZE
        input): the live column list itself when no row was deleted, so a
        caller must not change it, keep it or load it into a table."""
        values = self.columns[column]
        if self._count == len(values):
            return values
        return list(compress(values, self.alive))

    def _build(self, index: Optional[Index]) -> SortedIndex:
        """The PK index (*index* None) or a secondary *index*, built over
        the current rows straight from the column lists.

        The PK build starts from ascending row ids.  A secondary index
        orders equal keys by the PK, so its build starts from the PK
        index's ``(PK, row id)`` order: the PK index's row ids.
        """
        if index is None:
            names, row_ids = (), self.live_ids()
            sort_columns = len(self.table.primary_key)
        else:
            names, row_ids = index.columns, self.pk_index.rids
            sort_columns = len(names)
        return SortedIndex.build(*self._index_columns(names), row_ids, sort_columns)

    def _index_columns(self, names: Sequence[str]) -> tuple[list, list]:
        """The column lists and kinds an index on *names* reads: its own
        columns, then the PK (the PK index's are the PK alone)."""
        names = (*names, *self.table.primary_key)
        return [self.columns[n] for n in names], [self.kinds[n] for n in names]

    def _note_kind(self, name: str, value: Any) -> bool:
        """Record *value*'s type in its column's kinds; True if it is new."""
        kinds = self.kinds[name]
        if value.__class__ in kinds:
            return False
        kinds.add(value.__class__)
        return True

    def _retype(self) -> None:
        """After a column's kinds widened: every index re-picks how it
        compares values."""
        self.pk_index.retype()
        for index in self.secondary.values():
            index.retype()

    def _check(self, row_id: int) -> None:
        if not self.is_stored(row_id):
            raise StorageError(f"no row {row_id} in table {self.table.name}")

    def _check_columns(self, row: Mapping[str, Any]) -> None:
        if row.keys() <= self.columns.keys():
            return
        unknown = next(name for name in row if name not in self.columns)
        raise StorageError(f"no column {unknown!r} in table {self.table.name}")


class StoredRows(Mapping):
    """Read-only ``row id -> row dict`` view of a :class:`TableStorage`,
    in row-id order; each access builds new dicts."""

    def __init__(self, storage: TableStorage):
        self._storage = storage

    def __getitem__(self, row_id: int) -> dict[str, Any]:
        if row_id not in self:
            raise KeyError(row_id)
        return self._storage.row(row_id)

    def __contains__(self, row_id: object) -> bool:
        return isinstance(row_id, int) and self._storage.is_stored(row_id)

    def __iter__(self) -> Iterator[int]:
        return iter(self._storage.live_ids())

    def __len__(self) -> int:
        return self._storage.row_count
