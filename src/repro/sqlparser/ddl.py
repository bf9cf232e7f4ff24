"""DDL parsing: CREATE TABLE / CREATE INDEX.

Lets schemas be loaded from ordinary ``schema.sql`` files (the CLI's
input format).  The supported grammar covers the common core::

    CREATE TABLE name (
        col TYPE [(len[, scale])] [NOT NULL | NULL],
        ...,
        PRIMARY KEY (col [, col ...])
    );
    CREATE [UNIQUE] INDEX [name] ON table (col [, col ...]);

Types map onto :mod:`repro.catalog.types`; unrecognized type names
default to a 16-byte string (width matters more than exactness for the
advisor).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..catalog import (
    BIGINT,
    BOOLEAN,
    Column,
    ColumnType,
    DATE,
    DATETIME,
    DECIMAL,
    FLOAT,
    INT,
    Index,
    Schema,
    Table,
    char,
    varchar,
)
from .parser import _Parser
from .tokens import EOF, IDENT, KEYWORDS, NUMBER, STRING

_TYPE_MAP: dict[str, ColumnType] = {
    "INT": INT, "INTEGER": INT, "SMALLINT": INT, "TINYINT": INT,
    "MEDIUMINT": INT, "SERIAL": BIGINT,
    "BIGINT": BIGINT,
    "FLOAT": FLOAT, "DOUBLE": FLOAT, "REAL": FLOAT,
    "DECIMAL": DECIMAL, "NUMERIC": DECIMAL,
    "DATE": DATE,
    "DATETIME": DATETIME, "TIMESTAMP": DATETIME, "TIME": DATETIME,
    "BOOLEAN": BOOLEAN, "BOOL": BOOLEAN,
    "TEXT": varchar(120), "BLOB": varchar(200), "JSON": varchar(200),
}


class DdlError(ValueError):
    """Raised on unsupported or malformed DDL."""


@dataclass
class ParsedDdl:
    """Result of parsing a DDL script."""

    tables: list[Table] = field(default_factory=list)
    indexes: list[Index] = field(default_factory=list)

    def to_schema(self) -> Schema:
        schema = Schema.from_tables(self.tables)
        for index in self.indexes:
            schema.add_index(index)
        return schema


def parse_ddl(sql: str) -> ParsedDdl:
    """Parse a script of semicolon-separated DDL statements."""
    return _DdlParser(sql).parse_script()


class _DdlParser(_Parser):
    """The SQL parser's token cursor over the DDL grammar; its errors are
    raised as :class:`DdlError`."""

    _error = DdlError

    def parse_script(self) -> ParsedDdl:
        result = ParsedDdl()
        while self._tags[self._pos] is not EOF:
            if self._accept(";"):
                continue
            self._expect("CREATE")
            tag = self._tags[self._pos]
            if tag == "TABLE":
                result.tables.append(self._parse_create_table())
            elif tag == "UNIQUE" or tag == "INDEX":
                result.indexes.append(self._parse_create_index())
            else:
                raise DdlError(
                    f"unsupported CREATE {self._texts[self._pos]!r} "
                    f"at offset {self._offsets[self._pos]}"
                )
        return result

    def _parse_create_table(self) -> Table:
        self._expect("TABLE")
        name = self._expect_ident()
        self._expect("(")
        columns: list[Column] = []
        primary_key: tuple[str, ...] = ()
        while True:
            if self._accept("PRIMARY"):
                self._expect("KEY")
                primary_key = self._parse_column_list()
            else:
                column, inline_pk = self._parse_column_def()
                columns.append(column)
                if inline_pk:
                    primary_key = (column.name,)
            if self._accept(","):
                continue
            self._expect(")")
            break
        if not primary_key:
            # Convention: a leading 'id' column acts as the clustered PK.
            if columns and columns[0].name.lower() in ("id", f"{name}_id"):
                primary_key = (columns[0].name,)
            else:
                raise DdlError(f"table {name} needs a PRIMARY KEY clause")
        return Table(name, columns, primary_key)

    def _parse_column_def(self) -> tuple[Column, bool]:
        name = self._expect_ident()
        ctype = self._parse_type()
        nullable = True
        inline_pk = False
        # Trailing column attributes: [NOT NULL | NULL], DEFAULT ... etc.
        while (tag := self._tags[self._pos]) != "," and tag != ")":
            if self._accept("NOT"):
                self._expect("NULL")
                nullable = False
            elif self._accept("NULL"):
                nullable = True
            elif self._accept("PRIMARY"):
                self._expect("KEY")
                inline_pk = True
                nullable = False
            elif tag is IDENT or tag is NUMBER or tag is STRING or tag in KEYWORDS:
                self._pos += 1   # DEFAULT <value>, AUTO_INCREMENT, UNIQUE, ...
            else:
                raise DdlError(
                    f"unexpected token {self._texts[self._pos]!r} in column definition"
                )
        return Column(name, ctype, nullable=nullable), inline_pk

    def _parse_type(self) -> ColumnType:
        type_name = self._expect_ident().upper()
        length = None
        if self._accept("("):
            if self._tags[self._pos] is not NUMBER:   # not even LIMIT's `?`
                raise self._error("expected a length in type parentheses")
            length = int(float(self._advance()))
            if self._accept(","):
                self._advance()    # scale, ignored
            self._expect(")")
        if type_name in ("VARCHAR", "VARBINARY", "NVARCHAR"):
            return varchar(max(1, (length or 32) // 2))   # avg ~ half max
        if type_name in ("CHAR", "BINARY", "NCHAR"):
            return char(length or 1)
        if type_name in _TYPE_MAP:
            return _TYPE_MAP[type_name]
        return varchar(16)

    def _parse_create_index(self) -> Index:
        unique = self._accept("UNIQUE")
        self._expect("INDEX")
        if self._tags[self._pos] is IDENT:
            self._pos += 1   # index name: ours are derived from columns
        self._expect("ON")
        table = self._expect_ident()
        columns = self._parse_column_list()
        return Index(table, columns, unique=unique)
