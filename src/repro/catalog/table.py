"""Table metadata."""

from __future__ import annotations

from dataclasses import dataclass, field

from .column import Column


class CatalogError(KeyError):
    """Raised for unknown tables / columns or invalid definitions."""


@dataclass
class Table:
    """A base table with a clustered primary key.

    The storage model follows InnoDB: the base table *is* the primary key
    (clustered index); every secondary index stores its key columns plus
    the primary key columns, and non-covering secondary lookups pay an
    extra seek into the clustered PK.

    Attributes:
        name: table name, unique within a schema.
        columns: ordered column list.
        primary_key: names of the PK columns (must be non-empty).
        row_overhead: fixed per-row storage overhead in bytes.
    """

    name: str
    columns: list[Column]
    primary_key: tuple[str, ...]
    row_overhead: int = 20

    _by_name: dict[str, Column] = field(init=False, repr=False)
    #: Column names in order; computed once (read per stored row).
    column_names: tuple[str, ...] = field(init=False, repr=False)
    #: Average stored row width in bytes (payload + row overhead); computed
    #: once (read by every scan and index path the planner costs).
    row_width: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._by_name = {col.name: col for col in self.columns}
        self.column_names = tuple(self._by_name)
        self.row_width = sum(col.width for col in self.columns) + self.row_overhead
        if len(self._by_name) != len(self.columns):
            raise CatalogError(f"duplicate column names in table {self.name}")
        if not self.primary_key:
            raise CatalogError(f"table {self.name} needs a primary key")
        for pk_col in self.primary_key:
            if pk_col not in self._by_name:
                raise CatalogError(
                    f"primary key column {pk_col!r} not in table {self.name}"
                )

    def column(self, name: str) -> Column:
        """Look up a column by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise CatalogError(f"no column {name!r} in table {self.name}") from None

    def has_column(self, name: str) -> bool:
        """True if the table defines a column with this name."""
        return name in self._by_name

    @property
    def pk_width(self) -> int:
        """Width of the primary key, paid by every secondary index entry."""
        return sum(self.column(c).width for c in self.primary_key)
