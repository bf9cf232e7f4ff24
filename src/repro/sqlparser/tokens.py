"""Token definitions for the SQL lexer.

The reproduction implements its own SQL front end (the environment offers no
sqlglot); the token set covers the SQL subset emitted by every workload in
:mod:`repro.workloads` -- SELECT / INSERT / UPDATE / DELETE with joins,
AND/OR predicate trees, IN / BETWEEN / LIKE / IS NULL, GROUP BY, ORDER BY
and LIMIT.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class TokenKind(enum.Enum):
    """Lexical category of a token."""

    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    PARAM = "param"          # the `?` placeholder of a normalized query
    KEYWORD = "keyword"
    SYMBOL = "symbol"
    EOF = "eof"


#: Reserved words recognized by the lexer (case-insensitive in input,
#: canonicalized to upper case).  Anything not in this set lexes as IDENT.
KEYWORDS = frozenset(
    {
        "SELECT", "FROM", "WHERE", "GROUP", "ORDER", "BY", "HAVING",
        "LIMIT", "OFFSET", "AS", "AND", "OR", "NOT", "IN", "BETWEEN",
        "LIKE", "IS", "NULL", "ASC", "DESC", "DISTINCT", "JOIN", "INNER",
        "LEFT", "RIGHT", "OUTER", "CROSS", "STRAIGHT_JOIN", "ON",
        "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE", "TRUE",
        "FALSE", "COUNT", "SUM", "AVG", "MIN", "MAX", "EXISTS", "CASE",
        "WHEN", "THEN", "ELSE", "END", "UNION", "ALL",
        "CREATE", "TABLE", "INDEX", "UNIQUE", "PRIMARY", "KEY",
    }
)

#: Operators and punctuation, longest first so the lexer matches greedily.
SYMBOLS = ("<=>", "<>", "<=", ">=", "!=", "||", *"(),.;*+-/<>=%")

#: Tags of the tokens whose text is not their tag (see :mod:`.lexer`).
#: A keyword's or a symbol's tag is its canonical text; these sentinels
#: match neither.
IDENT, NUMBER, STRING, PARAM, EOF = "<ident>", "<number>", "<string>", "<param>", "<eof>"


@dataclass(frozen=True)
class Token:
    """A single lexed token.

    Attributes:
        kind: lexical category.
        text: canonical text (keywords upper-cased, strings without quotes).
        pos: character offset in the source string, for error messages.
    """

    kind: TokenKind
    text: str
    pos: int
