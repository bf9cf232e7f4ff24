"""Test-only oracle: the SQL lexer as a character-at-a-time loop.

``test_lexer``'s differential test checks that
:func:`repro.sqlparser.lexer.tokenize` yields the same ``(kind, text, pos)``
triples, or raises a ``LexError`` with the same message, as this loop does
on the same input.  The loop reads each character through the ``str``
predicates (``isspace``, ``isalpha``, ``isalnum``) that the lexer's regex
classes stand in for, so a Unicode-table mismatch between the two shows.
"""

from __future__ import annotations

from repro.sqlparser.lexer import LexError
from repro.sqlparser.tokens import KEYWORDS, TokenKind

_MULTI_CHAR_SYMBOLS = ("<=>", "<>", "<=", ">=", "!=", "||")
_SINGLE_CHAR_SYMBOLS = frozenset("(),.;*+-/<>=%")
_DIGITS = frozenset("0123456789")


def reference_tokenize(sql: str) -> list[tuple[TokenKind, str, int]]:
    """``(kind, text, pos)`` of every token of *sql*, EOF last."""
    tokens: list[tuple[TokenKind, str, int]] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if sql.startswith("--", i):
            end = sql.find("\n", i)
            i = n if end == -1 else end + 1
            continue
        if sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            if end == -1:
                raise LexError(f"unterminated comment at offset {i}")
            i = end + 2
            continue
        if ch == "?":
            tokens.append((TokenKind.PARAM, "?", i))
            i += 1
            continue
        if ch in "'\"":
            start = i
            text, i = _lex_string(sql, i)
            tokens.append((TokenKind.STRING, text, start))
            continue
        if ch == "`":
            end = sql.find("`", i + 1)
            if end == -1:
                raise LexError(f"unterminated quoted identifier at offset {i}")
            tokens.append((TokenKind.IDENT, sql[i + 1:end], i))
            i = end + 1
            continue
        if ch in _DIGITS or (ch == "." and i + 1 < n and sql[i + 1] in _DIGITS):
            start = i
            text, i = _lex_number(sql, i)
            tokens.append((TokenKind.NUMBER, text, start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (sql[i].isalnum() or sql[i] == "_"):
                i += 1
            word = sql[start:i]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append((TokenKind.KEYWORD, upper, start))
            else:
                tokens.append((TokenKind.IDENT, word, start))
            continue
        matched = False
        for sym in _MULTI_CHAR_SYMBOLS:
            if sql.startswith(sym, i):
                tokens.append((TokenKind.SYMBOL, sym, i))
                i += len(sym)
                matched = True
                break
        if matched:
            continue
        if ch in _SINGLE_CHAR_SYMBOLS:
            tokens.append((TokenKind.SYMBOL, ch, i))
            i += 1
            continue
        raise LexError(f"unexpected character {ch!r} at offset {i}")
    tokens.append((TokenKind.EOF, "", n))
    return tokens


def _lex_string(sql: str, i: int) -> tuple[str, int]:
    start = i
    quote = sql[i]
    i += 1
    parts: list[str] = []
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch == quote:
            if i + 1 < n and sql[i + 1] == quote:   # '' escape
                parts.append(quote)
                i += 2
                continue
            return "".join(parts), i + 1
        parts.append(ch)
        i += 1
    raise LexError(f"unterminated string literal starting at offset {start}")


def _lex_number(sql: str, i: int) -> tuple[str, int]:
    start = i
    n = len(sql)
    while i < n and sql[i] in _DIGITS:
        i += 1
    if i < n and sql[i] == ".":
        i += 1
        while i < n and sql[i] in _DIGITS:
            i += 1
    if i < n and sql[i] in "eE":
        j = i + 1
        if j < n and sql[j] in "+-":
            j += 1
        if j < n and sql[j] in _DIGITS:
            i = j
            while i < n and sql[i] in _DIGITS:
                i += 1
    return sql[start:i], i
