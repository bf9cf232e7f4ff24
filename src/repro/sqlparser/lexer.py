"""Hand-written lexer for the SQL subset used across the reproduction."""

from __future__ import annotations

from .tokens import (
    KEYWORDS,
    MULTI_CHAR_SYMBOLS,
    SINGLE_CHAR_SYMBOLS,
    Token,
    TokenKind,
)


class LexError(ValueError):
    """Raised when the input contains a character the lexer cannot handle."""


#: Numbers are ASCII only: ``str.isdigit`` also accepts ``²`` and ``٣``,
#: which ``int()`` then rejects or silently reads as another digit.
_DIGITS = frozenset("0123456789")


def tokenize(sql: str) -> list[Token]:
    """Tokenize *sql* into a list of tokens terminated by an EOF token.

    String literals accept single or double quotes with ``''`` escaping,
    identifiers may be backquoted (MySQL style), and ``--`` / ``/* */``
    comments are skipped.

    Raises:
        LexError: on an unterminated string/comment or unexpected character.
    """
    tokens: list[Token] = []
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
            tokens.append(Token(TokenKind.PARAM, "?", i))
            i += 1
            continue
        if ch in "'\"":
            start = i
            text, i = _lex_string(sql, i)
            tokens.append(Token(TokenKind.STRING, text, start))
            continue
        if ch == "`":
            end = sql.find("`", i + 1)
            if end == -1:
                raise LexError(f"unterminated quoted identifier at offset {i}")
            tokens.append(Token(TokenKind.IDENT, sql[i + 1:end], i))
            i = end + 1
            continue
        if ch in _DIGITS or (ch == "." and i + 1 < n and sql[i + 1] in _DIGITS):
            start = i
            text, i = _lex_number(sql, i)
            tokens.append(Token(TokenKind.NUMBER, text, start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (sql[i].isalnum() or sql[i] == "_"):
                i += 1
            word = sql[start:i]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenKind.KEYWORD, upper, start))
            else:
                tokens.append(Token(TokenKind.IDENT, word, start))
            continue
        matched = False
        for sym in MULTI_CHAR_SYMBOLS:
            if sql.startswith(sym, i):
                tokens.append(Token(TokenKind.SYMBOL, sym, i))
                i += len(sym)
                matched = True
                break
        if matched:
            continue
        if ch in SINGLE_CHAR_SYMBOLS:
            tokens.append(Token(TokenKind.SYMBOL, ch, i))
            i += 1
            continue
        raise LexError(f"unexpected character {ch!r} at offset {i}")
    tokens.append(Token(TokenKind.EOF, "", n))
    return tokens


def _lex_string(sql: str, i: int) -> tuple[str, int]:
    """Lex a quoted string starting at *i*; return (content, next offset)."""
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
    """Lex an (optionally fractional / exponent) numeric literal."""
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
