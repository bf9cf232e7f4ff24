"""Schema: the collection of tables and their indexes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .index import Index
from .table import CatalogError, Table


@dataclass
class Schema:
    """A named set of tables plus the current secondary index configuration.

    The catalog holds built indexes only.  A dataless (hypothetical)
    index, paper Sec. III-A4, is never a catalog entry: it reaches the
    optimizer as an ``extra_indexes`` argument of ``Optimizer.explain``.
    """

    tables: dict[str, Table] = field(default_factory=dict)
    _indexes: dict[str, Index] = field(default_factory=dict)
    #: Bumped by every change to the index configuration, so plan caches
    #: over this schema can tell that what they hold may be stale.
    index_version: int = field(default=0, init=False, compare=False, repr=False)

    @classmethod
    def from_tables(cls, tables: Iterable[Table]) -> "Schema":
        """Build a schema from a table collection."""
        schema = cls()
        for table in tables:
            schema.add_table(table)
        return schema

    def add_table(self, table: Table) -> None:
        if table.name in self.tables:
            raise CatalogError(f"duplicate table {table.name}")
        self.tables[table.name] = table

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise CatalogError(f"no table named {name!r}") from None

    # -- index configuration ------------------------------------------------

    def add_index(self, index: Index) -> Index:
        """Register a built index; validates table/columns; idempotent.

        A dataless index raises :class:`CatalogError`: hypothetical indexes
        are planner arguments, not catalog entries.  So does an index whose
        name is held by an index with a different key (``a_b`` + ``c`` and
        ``a`` + ``b_c``; MySQL's "Duplicate key name").
        """
        if index.dataless:
            raise CatalogError(f"dataless index {index.name} is not a catalog entry")
        table = self.table(index.table)
        for col in index.columns:
            if not table.has_column(col):
                raise CatalogError(
                    f"index column {col!r} not in table {index.table}"
                )
        existing = self._indexes.get(index.name)
        if existing is not None:
            if existing.key != index.key:
                raise CatalogError(f"duplicate index name {index.name}")
            return existing
        self._indexes[index.name] = index
        self.index_version += 1
        return index

    def drop_index(self, index: Index | str) -> None:
        """Remove an index by value or name (no-op if absent)."""
        name = index if isinstance(index, str) else index.name
        if self._indexes.pop(name, None) is not None:
            self.index_version += 1

    def indexes(self, table: str | None = None) -> list[Index]:
        """Current indexes, optionally restricted to one table."""
        return [
            idx
            for idx in self._indexes.values()
            if table is None or idx.table == table
        ]

    def has_index(self, index: Index) -> bool:
        """True if an index with the same name exists."""
        return index.name in self._indexes

    def get_index(self, name: str) -> Index | None:
        return self._indexes.get(name)

    def __iter__(self) -> Iterator[Table]:
        return iter(self.tables.values())

    def copy(self) -> "Schema":
        """Shallow-ish copy: shares Table objects, owns the index dict."""
        clone = Schema(dict(self.tables), dict(self._indexes))
        return clone
