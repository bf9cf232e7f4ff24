"""Secondary index metadata, including dataless ("what-if") indexes."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .table import Table


@dataclass(frozen=True)
class Index:
    """A (possibly hypothetical) secondary index.

    Attributes:
        table: name of the indexed table.
        columns: key columns, in index order.  Width of the index is
            ``len(columns)``.
        unique: uniqueness constraint flag (affects selectivity clamping).
        dataless: True for a *dataless index* (paper Sec. III-A4):
            statistics only, passed to the optimizer as an
            ``extra_indexes`` argument; never a catalog entry, so never
            used by the executor.
    """

    table: str
    columns: tuple[str, ...]
    unique: bool = False
    dataless: bool = False

    def __post_init__(self) -> None:
        if not self.columns:
            raise ValueError("index needs at least one column")
        if len(set(self.columns)) != len(self.columns):
            raise ValueError(f"duplicate columns in index: {self.columns}")

    @cached_property
    def name(self) -> str:
        """Deterministic name derived from table and key columns.

        Computed once per instance: sort keys read it on hot paths.  It
        is not an identity; see :attr:`key`.
        """
        return f"idx_{self.table}_" + "_".join(self.columns)

    @cached_property
    def key(self) -> tuple:
        """The identity of an index: ``(table, columns, unique)``.

        Caches, dedup maps, plans and the advisor's pipeline identify an
        index by its key.  Names collide when underscores appear in table
        or column names (``a_b`` + ``(c,)`` and ``a`` + ``(b_c,)`` are
        both ``idx_a_b_c``), so :attr:`name` serves only DDL text,
        journal fields and tie-breaking sort keys, and the catalog's rule
        of one index per name (:meth:`Schema.add_index`).
        """
        return (self.table, self.columns, self.unique)

    @property
    def width(self) -> int:
        """Number of key columns."""
        return len(self.columns)

    def create_statement(self) -> str:
        """The ``CREATE INDEX`` statement for this index (no ``;``)."""
        return (f"CREATE INDEX {self.name} ON {self.table} "
                f"({', '.join(self.columns)})")

    def materialized(self) -> "Index":
        """The same index with data (dataless flag cleared)."""
        if not self.dataless:
            return self
        return Index(self.table, self.columns, self.unique, dataless=False)

    def as_dataless(self) -> "Index":
        """The same index as a hypothetical (dataless) index."""
        if self.dataless:
            return self
        return Index(self.table, self.columns, self.unique, dataless=True)

    def is_prefix_of(self, other: "Index") -> bool:
        """True if this index's key is a proper or equal prefix of *other*'s."""
        if self.table != other.table or self.width > other.width:
            return False
        return other.columns[: self.width] == self.columns

    def entry_width(self, table: Table) -> int:
        """Bytes per index entry: key columns + clustered PK pointer.

        PK columns already in the key are not double counted (InnoDB
        behaviour).
        """
        key_width = sum(table.column(c).width for c in self.columns)
        pk_extra = sum(
            table.column(c).width
            for c in table.primary_key
            if c not in self.columns
        )
        return key_width + pk_extra + 12   # ~12B per-entry b-tree overhead

    def __str__(self) -> str:
        tag = " (dataless)" if self.dataless else ""
        return f"{self.table}({', '.join(self.columns)}){tag}"
