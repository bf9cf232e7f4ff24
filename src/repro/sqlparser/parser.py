"""Recursive-descent parser for the SQL subset.

Grammar (informal)::

    statement   := select | insert | update | delete
    select      := SELECT [DISTINCT] items FROM table_refs join* [WHERE expr]
                   [GROUP BY exprs] [HAVING expr] [ORDER BY order_items]
                   [LIMIT n [OFFSET n]]
    join        := [INNER|LEFT [OUTER]|RIGHT [OUTER]|CROSS|STRAIGHT_JOIN]
                   JOIN table_ref [ON expr]
    expr        := or_expr
    or_expr     := and_expr (OR and_expr)*
    and_expr    := not_expr (AND not_expr)*
    not_expr    := NOT not_expr | predicate
    predicate   := operand [comparison | IN | BETWEEN | LIKE | IS NULL]
    operand     := term ((+|-) term)*
    term        := factor ((*|/|%) factor)*
    factor      := literal | param | func_call | column | '(' expr ')'

Expression support is deliberately scoped to what index advisors inspect;
subqueries are not supported (the bundled workloads flatten them -- see
DESIGN.md substitution table).
"""

from __future__ import annotations

from typing import Optional

from . import ast
from .lexer import lex
from .tokens import EOF, IDENT, KEYWORDS, NUMBER, PARAM, STRING


class ParseError(ValueError):
    """Raised when the token stream does not match the grammar."""


def parse(sql: str) -> ast.Statement:
    """Parse a single SQL statement and return its AST."""
    return _Parser(sql).parse_statement()


def parse_select(sql: str) -> ast.Select:
    """Parse *sql* and assert the result is a SELECT statement."""
    stmt = parse(sql)
    if not isinstance(stmt, ast.Select):
        raise ParseError(f"expected SELECT statement, got {type(stmt).__name__}")
    return stmt


#: Comparison operator tags -> the AST's operator (``<>`` reads as ``!=``).
_COMPARISONS = {
    "=": "=", "<=>": "<=>", "!=": "!=", "<>": "!=",
    "<": "<", "<=": "<=", ">": ">", ">=": ">=",
}
_ADDITIVE = frozenset(("+", "-"))
_MULTIPLICATIVE = frozenset(("*", "/", "%"))
_NEGATABLE = frozenset(("IN", "BETWEEN", "LIKE"))
_AGGREGATES = frozenset(("COUNT", "SUM", "AVG", "MIN", "MAX"))
_KEYWORD_LITERALS = {"NULL": None, "TRUE": True, "FALSE": False}
_JOIN_KINDS = frozenset(("INNER", "LEFT", "RIGHT", "CROSS"))


class _Parser:
    """Cursor over the lexer's parallel tag, text and offset lists.

    A keyword's or a symbol's tag is its text, so ``_accept("FROM")`` and
    ``_accept("(")`` each compare one list element; identifiers, literals,
    parameters and EOF carry the sentinel tags of :mod:`.tokens`.
    ``_error`` is the exception the cursor primitives and ``_parse_int``
    raise; a grammar that reuses them (the DDL parser) sets its own.
    """

    _error: type[ValueError] = ParseError

    def __init__(self, sql: str):
        self._tags, self._texts, self._offsets = lex(sql)
        self._pos = 0

    # -- cursor primitives -------------------------------------------------

    def _advance(self) -> str:
        """Step past the current token (never past EOF); return its text."""
        pos = self._pos
        if self._tags[pos] is not EOF:
            self._pos = pos + 1
        return self._texts[pos]

    def _accept(self, tag: str) -> bool:
        if self._tags[self._pos] == tag:
            self._pos += 1
            return True
        return False

    def _expect(self, tag: str) -> None:
        pos = self._pos
        if self._tags[pos] != tag:
            wanted = tag if tag in KEYWORDS else repr(tag)
            raise self._error(
                f"expected {wanted} at offset {self._offsets[pos]}, "
                f"got {self._texts[pos]!r}"
            )
        self._pos = pos + 1

    def _expect_ident(self) -> str:
        pos = self._pos
        if self._tags[pos] is not IDENT:
            raise self._error(
                f"expected identifier at offset {self._offsets[pos]}, "
                f"got {self._texts[pos]!r}"
            )
        self._pos = pos + 1
        return self._texts[pos]

    def _parse_column_list(self) -> tuple[str, ...]:
        """``(ident [, ident ...])``: INSERT's and the DDL's column lists."""
        self._expect("(")
        columns = [self._expect_ident()]
        while self._accept(","):
            columns.append(self._expect_ident())
        self._expect(")")
        return tuple(columns)

    # -- statements ----------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        tag = self._tags[0]
        if tag == "SELECT":
            stmt: ast.Statement = self._parse_select()
        elif tag == "INSERT":
            stmt = self._parse_insert()
        elif tag == "UPDATE":
            stmt = self._parse_update()
        elif tag == "DELETE":
            stmt = self._parse_delete()
        else:
            raise ParseError(f"unsupported statement starting with {self._texts[0]!r}")
        self._accept(";")
        pos = self._pos
        if self._tags[pos] is not EOF:
            raise ParseError(
                f"trailing input at offset {self._offsets[pos]}: {self._texts[pos]!r}"
            )
        return stmt

    def _parse_select(self) -> ast.Select:
        self._pos += 1   # SELECT
        distinct = self._accept("DISTINCT")
        items = [self._parse_select_item()]
        while self._accept(","):
            items.append(self._parse_select_item())
        self._expect("FROM")
        tables = [self._parse_table_ref()]
        joins: list[ast.Join] = []
        while True:
            if self._accept(","):
                tables.append(self._parse_table_ref())
                continue
            join = self._try_parse_join()
            if join is None:
                break
            joins.append(join)
        where = self._parse_expr() if self._accept("WHERE") else None
        group_by: tuple[ast.Expr, ...] = ()
        if self._accept("GROUP"):
            self._expect("BY")
            exprs = [self._parse_expr()]
            while self._accept(","):
                exprs.append(self._parse_expr())
            group_by = tuple(exprs)
        having = self._parse_expr() if self._accept("HAVING") else None
        order_by: tuple[ast.OrderItem, ...] = ()
        if self._accept("ORDER"):
            self._expect("BY")
            order_items = [self._parse_order_item()]
            while self._accept(","):
                order_items.append(self._parse_order_item())
            order_by = tuple(order_items)
        limit = offset = None
        if self._accept("LIMIT"):
            limit = self._parse_int()
            if self._accept("OFFSET"):
                offset = self._parse_int()
            elif self._accept(","):   # MySQL LIMIT offset, count
                offset = limit
                limit = self._parse_int()
        return ast.Select(
            items=tuple(items),
            tables=tuple(tables),
            joins=tuple(joins),
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _parse_select_item(self) -> ast.SelectItem:
        tags = self._tags
        pos = self._pos
        if tags[pos] == "*":
            self._pos = pos + 1
            return ast.SelectItem(ast.Star())
        # t.* projection
        if tags[pos] is IDENT and tags[pos + 1] == "." and tags[pos + 2] == "*":
            self._pos = pos + 3
            return ast.SelectItem(ast.Star(self._texts[pos]))
        expr = self._parse_expr()
        return ast.SelectItem(expr, self._parse_alias())

    def _parse_alias(self) -> Optional[str]:
        """``[AS] ident`` after a select item or a table name."""
        if self._accept("AS"):
            return self._expect_ident()
        pos = self._pos
        if self._tags[pos] is IDENT:
            self._pos = pos + 1
            return self._texts[pos]
        return None

    def _parse_table_ref(self) -> ast.TableRef:
        name = self._expect_ident()
        return ast.TableRef(name, self._parse_alias())

    def _try_parse_join(self) -> Optional[ast.Join]:
        tag = self._tags[self._pos]
        if tag == "STRAIGHT_JOIN":
            kind = "STRAIGHT"
            self._pos += 1
        elif tag == "JOIN":
            kind = "INNER"
            self._pos += 1
        elif tag in _JOIN_KINDS:
            self._pos += 1
            self._accept("OUTER")
            self._expect("JOIN")
            kind = tag
        else:
            return None
        table = self._parse_table_ref()
        condition = self._parse_expr() if self._accept("ON") else None
        return ast.Join(kind, table, condition)

    def _parse_order_item(self) -> ast.OrderItem:
        expr = self._parse_expr()
        desc = self._accept("DESC")
        if not desc:
            self._accept("ASC")
        return ast.OrderItem(expr, desc)

    def _parse_int(self) -> int:
        pos = self._pos
        tag = self._tags[pos]
        if tag is NUMBER:
            self._pos = pos + 1
            return int(float(self._texts[pos]))
        if tag is PARAM:
            # Normalized queries carry `LIMIT ?`; treat as a nominal bound.
            self._pos = pos + 1
            return -1
        raise self._error(f"expected integer at offset {self._offsets[pos]}")

    def _parse_insert(self) -> ast.Insert:
        self._pos += 1   # INSERT
        self._expect("INTO")
        table = self._parse_table_ref()
        columns = self._parse_column_list()
        self._expect("VALUES")
        rows = [self._parse_value_row()]
        while self._accept(","):
            rows.append(self._parse_value_row())
        return ast.Insert(table, columns, tuple(rows))

    def _parse_value_row(self) -> tuple[ast.Expr, ...]:
        self._expect("(")
        values = [self._parse_expr()]
        while self._accept(","):
            values.append(self._parse_expr())
        self._expect(")")
        return tuple(values)

    def _parse_update(self) -> ast.Update:
        self._pos += 1   # UPDATE
        table = self._parse_table_ref()
        self._expect("SET")
        assignments = [self._parse_assignment()]
        while self._accept(","):
            assignments.append(self._parse_assignment())
        where = self._parse_expr() if self._accept("WHERE") else None
        return ast.Update(table, tuple(assignments), where)

    def _parse_assignment(self) -> tuple[str, ast.Expr]:
        column = self._expect_ident()
        self._expect("=")
        return column, self._parse_expr()

    def _parse_delete(self) -> ast.Delete:
        self._pos += 1   # DELETE
        self._expect("FROM")
        table = self._parse_table_ref()
        where = self._parse_expr() if self._accept("WHERE") else None
        return ast.Delete(table, where)

    # -- expressions ---------------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        items = [self._parse_and()]
        while self._tags[self._pos] == "OR":
            self._pos += 1
            items.append(self._parse_and())
        if len(items) == 1:
            return items[0]
        return ast.Or(tuple(items))

    def _parse_and(self) -> ast.Expr:
        items = [self._parse_not()]
        while self._tags[self._pos] == "AND":
            self._pos += 1
            items.append(self._parse_not())
        if len(items) == 1:
            return items[0]
        return ast.And(tuple(items))

    def _parse_not(self) -> ast.Expr:
        if self._accept("NOT"):
            return ast.Not(self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> ast.Expr:
        left = self._parse_operand()
        tags = self._tags
        pos = self._pos
        tag = tags[pos]
        op = _COMPARISONS.get(tag)
        if op is not None:
            self._pos = pos + 1
            return ast.Comparison(op, left, self._parse_operand())
        negated = False
        if tag == "NOT" and tags[pos + 1] in _NEGATABLE:
            pos += 1
            self._pos = pos
            tag = tags[pos]
            negated = True
        if tag == "IN":
            self._pos = pos + 1
            self._expect("(")
            items = [self._parse_operand()]
            while self._accept(","):
                items.append(self._parse_operand())
            self._expect(")")
            return ast.InList(left, tuple(items), negated)
        if tag == "BETWEEN":
            self._pos = pos + 1
            low = self._parse_operand()
            self._expect("AND")
            high = self._parse_operand()
            return ast.Between(left, low, high, negated)
        if tag == "LIKE":
            self._pos = pos + 1
            cmp = ast.Comparison("LIKE", left, self._parse_operand())
            return ast.Not(cmp) if negated else cmp
        if tag == "IS":
            self._pos = pos + 1
            is_negated = self._accept("NOT")
            self._expect("NULL")
            return ast.IsNull(left, is_negated)
        return left

    def _parse_operand(self) -> ast.Expr:
        left = self._parse_term()
        tags = self._tags
        while tags[self._pos] in _ADDITIVE:
            op = tags[self._pos]
            self._pos += 1
            left = ast.Arithmetic(op, left, self._parse_term())
        return left

    def _parse_term(self) -> ast.Expr:
        left = self._parse_factor()
        tags = self._tags
        while tags[self._pos] in _MULTIPLICATIVE:
            op = tags[self._pos]
            self._pos += 1
            left = ast.Arithmetic(op, left, self._parse_factor())
        return left

    def _parse_factor(self) -> ast.Expr:
        tags = self._tags
        texts = self._texts
        pos = self._pos
        tag = tags[pos]
        if tag is IDENT:
            nxt = tags[pos + 1]
            if nxt == "(":
                self._pos = pos + 1
                return self._parse_func_call(texts[pos].upper())
            if nxt == ".":
                self._pos = pos + 2
                return ast.ColumnRef(texts[pos], self._expect_ident())
            self._pos = pos + 1
            return ast.ColumnRef(None, texts[pos])
        if tag is NUMBER:
            self._pos = pos + 1
            text = texts[pos]
            if "." in text or "e" in text or "E" in text:
                return ast.Literal(float(text))
            return ast.Literal(int(text))
        if tag is PARAM:
            self._pos = pos + 1
            return ast.Param()
        if tag is STRING:
            self._pos = pos + 1
            return ast.Literal(texts[pos])
        if tag in _KEYWORD_LITERALS:
            self._pos = pos + 1
            return ast.Literal(_KEYWORD_LITERALS[tag])
        if tag == "-":
            self._pos = pos + 1
            inner = self._parse_factor()
            if isinstance(inner, ast.Literal) and isinstance(inner.value, (int, float)):
                return ast.Literal(-inner.value)
            return ast.Arithmetic("-", ast.Literal(0), inner)
        if tag in _AGGREGATES:
            self._pos = pos + 1
            return self._parse_func_call(tag)
        if tag == "(":
            self._pos = pos + 1
            expr = self._parse_expr()
            self._expect(")")
            return expr
        raise ParseError(f"unexpected token {texts[pos]!r} at offset {self._offsets[pos]}")

    def _parse_func_call(self, name: str) -> ast.FuncCall:
        self._expect("(")
        if self._accept("*"):
            self._expect(")")
            return ast.FuncCall(name, star=True)
        distinct = self._accept("DISTINCT")
        args = [self._parse_expr()]
        while self._accept(","):
            args.append(self._parse_expr())
        self._expect(")")
        return ast.FuncCall(name, tuple(args), distinct=distinct)
