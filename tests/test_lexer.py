"""Lexer unit tests."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sqlparser import ParseError, parse
from repro.sqlparser.lexer import LexError, tokenize
from repro.sqlparser.tokens import TokenKind

from .reference_lexer import reference_tokenize


def kinds(sql):
    return [t.kind for t in tokenize(sql)[:-1]]


def texts(sql):
    return [t.text for t in tokenize(sql)[:-1]]


def test_keywords_are_canonicalized_upper():
    assert texts("select From WHERE") == ["SELECT", "FROM", "WHERE"]
    assert all(k is TokenKind.KEYWORD for k in kinds("select from where"))


def test_identifiers_keep_case():
    tokens = tokenize("lineItem l_shipdate")
    assert tokens[0].text == "lineItem"
    assert tokens[1].text == "l_shipdate"
    assert tokens[0].kind is TokenKind.IDENT


def test_integer_and_float_numbers():
    assert texts("1 42 3.14 .5 1e6 2.5E-3") == ["1", "42", "3.14", ".5", "1e6", "2.5E-3"]
    assert all(k is TokenKind.NUMBER for k in kinds("1 3.14 1e6"))


def test_single_quoted_string_with_escape():
    tokens = tokenize("'it''s'")
    assert tokens[0].kind is TokenKind.STRING
    assert tokens[0].text == "it's"


def test_double_quoted_string():
    assert tokenize('"hello"')[0].text == "hello"


def test_backquoted_identifier():
    token = tokenize("`select`")[0]
    assert token.kind is TokenKind.IDENT
    assert token.text == "select"


def test_param_placeholder():
    assert tokenize("?")[0].kind is TokenKind.PARAM


def test_multi_char_operators_lex_greedily():
    assert texts("<=> <> <= >= != ||") == ["<=>", "<>", "<=", ">=", "!=", "||"]


def test_single_char_symbols():
    assert texts("( ) , . ; * + - / %") == list("(),.;*+-/%")


def test_line_comment_skipped():
    assert texts("SELECT -- comment\n 1") == ["SELECT", "1"]


def test_block_comment_skipped():
    assert texts("SELECT /* anything * here */ 1") == ["SELECT", "1"]


def test_unterminated_string_raises():
    with pytest.raises(LexError):
        tokenize("'oops")


def test_unterminated_comment_raises():
    with pytest.raises(LexError):
        tokenize("/* never closed")


def test_unexpected_character_raises():
    with pytest.raises(LexError):
        tokenize("SELECT @")


def test_eof_token_always_present():
    tokens = tokenize("")
    assert len(tokens) == 1
    assert tokens[0].kind is TokenKind.EOF


@pytest.mark.parametrize("sql", [
    "SELECT a FROM t WHERE b = ²",         # superscript two
    "SELECT a FROM t LIMIT ٣",             # Arabic-Indic three
    "SELECT a FROM t WHERE b = 1²",
    "SELECT a FROM t WHERE b = .٣",
])
def test_non_ascii_digits_raise(sql):
    """Only ASCII 0-9 form numbers; other Unicode digits are lex errors."""
    with pytest.raises(LexError, match="unexpected character"):
        tokenize(sql)


def test_literal_tokens_carry_start_offsets():
    tokens = tokenize("SELECT 'xy', 42, \"q\", 1.5e3, .5")
    literals = [(t.text, t.pos) for t in tokens
                if t.kind in (TokenKind.STRING, TokenKind.NUMBER)]
    assert literals == [("xy", 7), ("42", 13), ("q", 17), ("1.5e3", 22), (".5", 29)]


def test_parse_errors_report_literal_start_offsets():
    with pytest.raises(ParseError, match="trailing input at offset 28: 'd'"):
        parse("SELECT a FROM t WHERE 'abc' 'd'")
    with pytest.raises(LexError, match="starting at offset 7"):
        tokenize("SELECT 'never closed")


#: SQL punctuation, quotes and comment openers, ASCII letters and digits, and
#: the non-ASCII characters where a regex class and a ``str`` predicate could
#: part: a letter, a lower-case letter whose upper case is two letters, a
#: digit that is not decimal, a decimal digit that is not ASCII, and four
#: whitespace characters (no-break space, file separator, line separator).
_ALPHABET = (
    list("()[],.;*+-/<>=!|%?'\"`") + ["--", "/*", "*/", "''", '""', "\n", " "]
    + list("abcexyzESLT_019") + ["SELECT", "from", "Null"]
    + list("éß²٣\xa0\x1c\u2028")
)


def _lexed(lexer, sql):
    try:
        return [
            tuple(t) if isinstance(t, tuple) else (t.kind, t.text, t.pos)
            for t in lexer(sql)
        ]
    except LexError as err:
        return str(err)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_ALPHABET), max_size=24).map("".join))
@example("'abc''")
@example("/*/")
@example("x ²y ½")
@example("1.e5 1e .5.3 1.2.3 7e+ 8E-2")
@example("\x1cSELECT\u2028a\xa0-- tail")
def test_tokenize_matches_reference_loop(sql):
    """tokenize's (kind, text, pos) list, or its LexError message, equals
    the character loop's on the same input."""
    assert _lexed(tokenize, sql) == _lexed(reference_tokenize, sql)
