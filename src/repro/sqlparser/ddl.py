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
from .lexer import tokenize
from .parser import _Parser
from .tokens import TokenKind

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
    return _DdlParser(tokenize(sql)).parse_script()


class _DdlParser(_Parser):
    """The SQL parser's token cursor over the DDL grammar; its errors are
    raised as :class:`DdlError`."""

    _error = DdlError

    def parse_script(self) -> ParsedDdl:
        result = ParsedDdl()
        while self._cur.kind is not TokenKind.EOF:
            if self._accept_symbol(";"):
                continue
            self._expect_keyword("CREATE")
            if self._cur.is_keyword("TABLE"):
                result.tables.append(self._parse_create_table())
            elif self._cur.is_keyword("UNIQUE", "INDEX"):
                result.indexes.append(self._parse_create_index())
            else:
                raise DdlError(
                    f"unsupported CREATE {self._cur.text!r} at offset {self._cur.pos}"
                )
        return result

    def _parse_create_table(self) -> Table:
        self._expect_keyword("TABLE")
        name = self._expect_ident()
        self._expect_symbol("(")
        columns: list[Column] = []
        primary_key: tuple[str, ...] = ()
        while True:
            if self._accept_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                primary_key = self._parse_column_list()
            else:
                column, inline_pk = self._parse_column_def()
                columns.append(column)
                if inline_pk:
                    primary_key = (column.name,)
            if self._accept_symbol(","):
                continue
            self._expect_symbol(")")
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
        while not self._cur.is_symbol(",", ")"):
            if self._accept_keyword("NOT"):
                self._expect_keyword("NULL")
                nullable = False
            elif self._accept_keyword("NULL"):
                nullable = True
            elif self._accept_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                inline_pk = True
                nullable = False
            elif self._cur.kind in (TokenKind.IDENT, TokenKind.KEYWORD,
                                    TokenKind.NUMBER, TokenKind.STRING):
                self._advance()   # DEFAULT <value>, AUTO_INCREMENT, UNIQUE, ...
            else:
                raise DdlError(
                    f"unexpected token {self._cur.text!r} in column definition"
                )
        return Column(name, ctype, nullable=nullable), inline_pk

    def _parse_type(self) -> ColumnType:
        type_name = self._expect_ident().upper()
        length = None
        if self._accept_symbol("("):
            if self._cur.kind is not TokenKind.NUMBER:   # not even LIMIT's `?`
                raise self._error("expected a length in type parentheses")
            length = int(float(self._advance().text))
            if self._accept_symbol(","):
                self._advance()    # scale, ignored
            self._expect_symbol(")")
        if type_name in ("VARCHAR", "VARBINARY", "NVARCHAR"):
            return varchar(max(1, (length or 32) // 2))   # avg ~ half max
        if type_name in ("CHAR", "BINARY", "NCHAR"):
            return char(length or 1)
        if type_name in _TYPE_MAP:
            return _TYPE_MAP[type_name]
        return varchar(16)

    def _parse_create_index(self) -> Index:
        unique = self._accept_keyword("UNIQUE") is not None
        self._expect_keyword("INDEX")
        if self._cur.kind is TokenKind.IDENT:
            self._advance()   # index name: ours are derived from columns
        self._expect_keyword("ON")
        table = self._expect_ident()
        columns = self._parse_column_list()
        return Index(table, columns, unique=unique)
