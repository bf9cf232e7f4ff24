"""Regex lexer for the SQL subset used across the reproduction.

One compiled master pattern is matched at each offset; the name of the
alternative that matched (``lastgroup``) says what the token is.  The lexer
emits three parallel lists -- tags, texts and offsets -- that the parser
walks directly.  A keyword's or a symbol's tag is its canonical text;
every other token's tag is one of the sentinels :data:`~.tokens.IDENT`,
``NUMBER``, ``STRING``, ``PARAM`` and ``EOF``.

The pattern's classes stand in for the ``str`` predicates a hand-written
loop would call: ``\\s`` accepts exactly what ``str.isspace`` accepts and
``\\w`` what ``str.isalnum`` or ``_`` accepts.  An identifier starts with
an ``isalpha()`` character or ``_``; numbers are ASCII only.
"""

from __future__ import annotations

import re

from .tokens import (
    EOF,
    IDENT,
    KEYWORDS,
    NUMBER,
    PARAM,
    STRING,
    SYMBOLS,
    Token,
    TokenKind,
)


class LexError(ValueError):
    """Raised when the input contains a character the lexer cannot handle."""


def _symbol_pattern(symbol: str) -> str:
    # A lone '/' must not start an unterminated '/*': that is an error.
    return r"/(?!\*)" if symbol == "/" else re.escape(symbol)


_MASTER = re.compile(
    r"\s*(?:"
    # Identifiers and keywords.  An ASCII start is the common case; a
    # non-ASCII start ([^\W\d] also admits '²' and '½') is checked apart.
    r"(?P<word>[A-Za-z_]\w*)"
    # Numbers are ASCII only: str.isdigit also accepts '²' and '٣', which
    # int() then rejects or silently reads as another digit.
    r"|(?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<comment>--[^\n]*\n?|/\*(?s:.*?)\*/)"
    r"|(?P<symbol>" + "|".join(_symbol_pattern(s) for s in SYMBOLS) + ")"
    # A string closes at a quote that no second quote follows ('' escapes).
    r"|(?P<single>'[^']*(?:''[^']*)*'(?!'))"
    r"|(?P<double>\"[^\"]*(?:\"\"[^\"]*)*\"(?!\"))"
    r"|(?P<quoted>`[^`]*`)"
    r"|(?P<param>\?)"
    r"|(?P<uword>[^\W\d]\w*)"
    # Anything else starts no token: finditer then never skips a character
    # (only trailing whitespace goes unmatched).
    r"|(?P<error>\S)"
    r")"
)

#: Keyword tags: one string object per keyword, so the parser's
#: comparisons with keyword literals hit the identity fast path.
_KEYWORD_TAGS = {word: word for word in KEYWORDS}
_SENTINEL_KINDS = {
    IDENT: TokenKind.IDENT,
    NUMBER: TokenKind.NUMBER,
    STRING: TokenKind.STRING,
    PARAM: TokenKind.PARAM,
    EOF: TokenKind.EOF,
}


def lex(sql: str) -> tuple[list[str], list[str], list[int]]:
    """Lex *sql* into parallel ``(tags, texts, offsets)`` lists ending at EOF.

    String literals accept single or double quotes with ``''`` escaping,
    identifiers may be backquoted (MySQL style), and ``--`` / ``/* */``
    comments are skipped.  A text is the token's canonical text: keywords
    upper-cased, strings and backquoted identifiers without their quotes.

    Raises:
        LexError: on an unterminated string/comment or unexpected character.
    """
    tags: list[str] = []
    texts: list[str] = []
    offsets: list[int] = []
    add_tag, add_text, add_offset = tags.append, texts.append, offsets.append
    keyword_tag = _KEYWORD_TAGS.get
    for m in _MASTER.finditer(sql):
        kind = m.lastgroup
        start, end = m.span(kind)
        if kind == "word" or kind == "uword" and sql[start].isalpha():
            text = sql[start:end]
            tag = keyword_tag(text.upper())
            if tag is None:
                add_tag(IDENT)
                add_text(text)
            else:
                add_tag(tag)
                add_text(tag)
        elif kind == "symbol":
            tag = sql[start:end]
            add_tag(tag)
            add_text(tag)
        elif kind == "comment":
            continue
        elif kind == "number":
            add_tag(NUMBER)
            add_text(sql[start:end])
        elif kind == "single":
            add_tag(STRING)
            add_text(sql[start + 1:end - 1].replace("''", "'"))
        elif kind == "double":
            add_tag(STRING)
            add_text(sql[start + 1:end - 1].replace('""', '"'))
        elif kind == "quoted":
            add_tag(IDENT)
            add_text(sql[start + 1:end - 1])
        elif kind == "param":
            add_tag(PARAM)
            add_text("?")
        else:   # an error, or a uword that starts with a non-letter
            raise LexError(_error_message(sql, start))
        add_offset(start)
    add_tag(EOF)
    add_text("")
    add_offset(len(sql))
    return tags, texts, offsets


def _error_message(sql: str, i: int) -> str:
    """Why no token starts at offset *i* of *sql*."""
    ch = sql[i]
    if ch in "'\"":
        return f"unterminated string literal starting at offset {i}"
    if ch == "`":
        return f"unterminated quoted identifier at offset {i}"
    if sql.startswith("/*", i):
        return f"unterminated comment at offset {i}"
    return f"unexpected character {ch!r} at offset {i}"


def tokenize(sql: str) -> list[Token]:
    """Tokenize *sql* into a list of :class:`Token` terminated by an EOF token.

    The parser reads :func:`lex`'s lists directly; this is the same token
    stream as objects, for callers that want them.

    Raises:
        LexError: as :func:`lex`.
    """
    tags, texts, offsets = lex(sql)
    out = []
    for tag, text, pos in zip(tags, texts, offsets):
        kind = _SENTINEL_KINDS.get(tag)
        if kind is None:
            kind = TokenKind.KEYWORD if tag in _KEYWORD_TAGS else TokenKind.SYMBOL
        out.append(Token(kind, text, pos))
    return out
