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
from .lexer import tokenize
from .tokens import Token, TokenKind


class ParseError(ValueError):
    """Raised when the token stream does not match the grammar."""


def parse(sql: str) -> ast.Statement:
    """Parse a single SQL statement and return its AST."""
    return _Parser(tokenize(sql)).parse_statement()


def parse_select(sql: str) -> ast.Select:
    """Parse *sql* and assert the result is a SELECT statement."""
    stmt = parse(sql)
    if not isinstance(stmt, ast.Select):
        raise ParseError(f"expected SELECT statement, got {type(stmt).__name__}")
    return stmt


class _Parser:
    """Stateful cursor over a token list.

    ``_error`` is the exception the cursor primitives and ``_parse_int``
    raise; a grammar that reuses them (the DDL parser) sets its own.
    """

    _error: type[ValueError] = ParseError

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- cursor primitives -------------------------------------------------

    @property
    def _cur(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._cur
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _accept_keyword(self, *words: str) -> Optional[Token]:
        if self._cur.is_keyword(*words):
            return self._advance()
        return None

    def _accept_symbol(self, *symbols: str) -> Optional[Token]:
        if self._cur.is_symbol(*symbols):
            return self._advance()
        return None

    def _expect_keyword(self, word: str) -> Token:
        if not self._cur.is_keyword(word):
            raise self._error(f"expected {word} at offset {self._cur.pos}, got {self._cur.text!r}")
        return self._advance()

    def _expect_symbol(self, symbol: str) -> Token:
        if not self._cur.is_symbol(symbol):
            raise self._error(
                f"expected {symbol!r} at offset {self._cur.pos}, got {self._cur.text!r}"
            )
        return self._advance()

    def _expect_ident(self) -> str:
        if self._cur.kind is not TokenKind.IDENT:
            raise self._error(
                f"expected identifier at offset {self._cur.pos}, got {self._cur.text!r}"
            )
        return self._advance().text

    def _parse_column_list(self) -> tuple[str, ...]:
        """``(ident [, ident ...])``: INSERT's and the DDL's column lists."""
        self._expect_symbol("(")
        columns = [self._expect_ident()]
        while self._accept_symbol(","):
            columns.append(self._expect_ident())
        self._expect_symbol(")")
        return tuple(columns)

    # -- statements ----------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        if self._cur.is_keyword("SELECT"):
            stmt: ast.Statement = self._parse_select()
        elif self._cur.is_keyword("INSERT"):
            stmt = self._parse_insert()
        elif self._cur.is_keyword("UPDATE"):
            stmt = self._parse_update()
        elif self._cur.is_keyword("DELETE"):
            stmt = self._parse_delete()
        else:
            raise ParseError(f"unsupported statement starting with {self._cur.text!r}")
        self._accept_symbol(";")
        if self._cur.kind is not TokenKind.EOF:
            raise ParseError(f"trailing input at offset {self._cur.pos}: {self._cur.text!r}")
        return stmt

    def _parse_select(self) -> ast.Select:
        self._expect_keyword("SELECT")
        distinct = self._accept_keyword("DISTINCT") is not None
        items = [self._parse_select_item()]
        while self._accept_symbol(","):
            items.append(self._parse_select_item())
        self._expect_keyword("FROM")
        tables = [self._parse_table_ref()]
        joins: list[ast.Join] = []
        while True:
            if self._accept_symbol(","):
                tables.append(self._parse_table_ref())
                continue
            join = self._try_parse_join()
            if join is None:
                break
            joins.append(join)
        where = self._parse_expr() if self._accept_keyword("WHERE") else None
        group_by: tuple[ast.Expr, ...] = ()
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            exprs = [self._parse_expr()]
            while self._accept_symbol(","):
                exprs.append(self._parse_expr())
            group_by = tuple(exprs)
        having = self._parse_expr() if self._accept_keyword("HAVING") else None
        order_by: tuple[ast.OrderItem, ...] = ()
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_items = [self._parse_order_item()]
            while self._accept_symbol(","):
                order_items.append(self._parse_order_item())
            order_by = tuple(order_items)
        limit = offset = None
        if self._accept_keyword("LIMIT"):
            limit = self._parse_int()
            if self._accept_keyword("OFFSET"):
                offset = self._parse_int()
            elif self._accept_symbol(","):   # MySQL LIMIT offset, count
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
        if self._cur.is_symbol("*"):
            self._advance()
            return ast.SelectItem(ast.Star())
        # t.* projection
        if (
            self._cur.kind is TokenKind.IDENT
            and self._tokens[self._pos + 1].is_symbol(".")
            and self._tokens[self._pos + 2].is_symbol("*")
        ):
            table = self._advance().text
            self._advance()
            self._advance()
            return ast.SelectItem(ast.Star(table))
        expr = self._parse_expr()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident()
        elif self._cur.kind is TokenKind.IDENT:
            alias = self._advance().text
        return ast.SelectItem(expr, alias)

    def _parse_table_ref(self) -> ast.TableRef:
        name = self._expect_ident()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident()
        elif self._cur.kind is TokenKind.IDENT:
            alias = self._advance().text
        return ast.TableRef(name, alias)

    def _try_parse_join(self) -> Optional[ast.Join]:
        kind = None
        if self._accept_keyword("STRAIGHT_JOIN"):
            kind = "STRAIGHT"
        elif self._cur.is_keyword("JOIN"):
            self._advance()
            kind = "INNER"
        elif self._cur.is_keyword("INNER", "LEFT", "RIGHT", "CROSS"):
            kw = self._advance().text
            self._accept_keyword("OUTER")
            self._expect_keyword("JOIN")
            kind = "INNER" if kw == "INNER" else kw
        if kind is None:
            return None
        table = self._parse_table_ref()
        condition = self._parse_expr() if self._accept_keyword("ON") else None
        return ast.Join(kind, table, condition)

    def _parse_order_item(self) -> ast.OrderItem:
        expr = self._parse_expr()
        desc = False
        if self._accept_keyword("DESC"):
            desc = True
        else:
            self._accept_keyword("ASC")
        return ast.OrderItem(expr, desc)

    def _parse_int(self) -> int:
        if self._cur.kind is TokenKind.NUMBER:
            return int(float(self._advance().text))
        if self._cur.kind is TokenKind.PARAM:
            # Normalized queries carry `LIMIT ?`; treat as a nominal bound.
            self._advance()
            return -1
        raise self._error(f"expected integer at offset {self._cur.pos}")

    def _parse_insert(self) -> ast.Insert:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._parse_table_ref()
        columns = self._parse_column_list()
        self._expect_keyword("VALUES")
        rows = [self._parse_value_row()]
        while self._accept_symbol(","):
            rows.append(self._parse_value_row())
        return ast.Insert(table, columns, tuple(rows))

    def _parse_value_row(self) -> tuple[ast.Expr, ...]:
        self._expect_symbol("(")
        values = [self._parse_expr()]
        while self._accept_symbol(","):
            values.append(self._parse_expr())
        self._expect_symbol(")")
        return tuple(values)

    def _parse_update(self) -> ast.Update:
        self._expect_keyword("UPDATE")
        table = self._parse_table_ref()
        self._expect_keyword("SET")
        assignments = [self._parse_assignment()]
        while self._accept_symbol(","):
            assignments.append(self._parse_assignment())
        where = self._parse_expr() if self._accept_keyword("WHERE") else None
        return ast.Update(table, tuple(assignments), where)

    def _parse_assignment(self) -> tuple[str, ast.Expr]:
        column = self._expect_ident()
        self._expect_symbol("=")
        return column, self._parse_expr()

    def _parse_delete(self) -> ast.Delete:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._parse_table_ref()
        where = self._parse_expr() if self._accept_keyword("WHERE") else None
        return ast.Delete(table, where)

    # -- expressions ---------------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        items = [self._parse_and()]
        while self._accept_keyword("OR"):
            items.append(self._parse_and())
        if len(items) == 1:
            return items[0]
        return ast.Or(tuple(items))

    def _parse_and(self) -> ast.Expr:
        items = [self._parse_not()]
        while self._accept_keyword("AND"):
            items.append(self._parse_not())
        if len(items) == 1:
            return items[0]
        return ast.And(tuple(items))

    def _parse_not(self) -> ast.Expr:
        if self._accept_keyword("NOT"):
            return ast.Not(self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> ast.Expr:
        left = self._parse_operand()
        if self._cur.is_symbol("=", "<=>", "!=", "<>", "<", "<=", ">", ">="):
            op = self._advance().text
            if op == "<>":
                op = "!="
            right = self._parse_operand()
            return ast.Comparison(op, left, right)
        negated = False
        if self._cur.is_keyword("NOT"):
            nxt = self._tokens[self._pos + 1]
            if nxt.is_keyword("IN", "BETWEEN", "LIKE"):
                self._advance()
                negated = True
        if self._accept_keyword("IN"):
            self._expect_symbol("(")
            items = [self._parse_operand()]
            while self._accept_symbol(","):
                items.append(self._parse_operand())
            self._expect_symbol(")")
            return ast.InList(left, tuple(items), negated)
        if self._accept_keyword("BETWEEN"):
            low = self._parse_operand()
            self._expect_keyword("AND")
            high = self._parse_operand()
            return ast.Between(left, low, high, negated)
        if self._accept_keyword("LIKE"):
            pattern = self._parse_operand()
            cmp = ast.Comparison("LIKE", left, pattern)
            return ast.Not(cmp) if negated else cmp
        if self._accept_keyword("IS"):
            is_negated = self._accept_keyword("NOT") is not None
            self._expect_keyword("NULL")
            return ast.IsNull(left, is_negated)
        return left

    def _parse_operand(self) -> ast.Expr:
        return self._parse_additive()

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while self._cur.is_symbol("+", "-"):
            op = self._advance().text
            right = self._parse_multiplicative()
            left = ast.Arithmetic(op, left, right)
        return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_factor()
        while self._cur.is_symbol("*", "/", "%"):
            op = self._advance().text
            right = self._parse_factor()
            left = ast.Arithmetic(op, left, right)
        return left

    def _parse_factor(self) -> ast.Expr:
        token = self._cur
        if token.kind is TokenKind.NUMBER:
            self._advance()
            text = token.text
            value: float | int
            if any(c in text for c in ".eE"):
                value = float(text)
            else:
                value = int(text)
            return ast.Literal(value)
        if token.kind is TokenKind.STRING:
            self._advance()
            return ast.Literal(token.text)
        if token.kind is TokenKind.PARAM:
            self._advance()
            return ast.Param()
        if token.is_keyword("NULL"):
            self._advance()
            return ast.Literal(None)
        if token.is_keyword("TRUE"):
            self._advance()
            return ast.Literal(True)
        if token.is_keyword("FALSE"):
            self._advance()
            return ast.Literal(False)
        if token.is_symbol("-"):
            self._advance()
            inner = self._parse_factor()
            if isinstance(inner, ast.Literal) and isinstance(inner.value, (int, float)):
                return ast.Literal(-inner.value)
            return ast.Arithmetic("-", ast.Literal(0), inner)
        if token.is_keyword("COUNT", "SUM", "AVG", "MIN", "MAX"):
            return self._parse_func_call(self._advance().text)
        if token.kind is TokenKind.IDENT:
            nxt = self._tokens[self._pos + 1]
            if nxt.is_symbol("("):
                return self._parse_func_call(self._advance().text.upper())
            return self._parse_column_ref()
        if token.is_symbol("("):
            self._advance()
            expr = self._parse_expr()
            self._expect_symbol(")")
            return expr
        raise ParseError(f"unexpected token {token.text!r} at offset {token.pos}")

    def _parse_func_call(self, name: str) -> ast.FuncCall:
        self._expect_symbol("(")
        if self._accept_symbol("*"):
            self._expect_symbol(")")
            return ast.FuncCall(name, star=True)
        distinct = self._accept_keyword("DISTINCT") is not None
        args = [self._parse_expr()]
        while self._accept_symbol(","):
            args.append(self._parse_expr())
        self._expect_symbol(")")
        return ast.FuncCall(name, tuple(args), distinct=distinct)

    def _parse_column_ref(self) -> ast.ColumnRef:
        first = self._expect_ident()
        if self._accept_symbol("."):
            second = self._expect_ident()
            return ast.ColumnRef(first, second)
        return ast.ColumnRef(None, first)
