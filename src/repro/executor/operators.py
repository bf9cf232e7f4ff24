"""Expression compilation for the executor.

Each statement's expressions are compiled once, before any row is read:
column bindings are resolved and node types dispatched at compile time,
and the result is a tree of Python closures.  Evaluating a row then costs
only the closures' own work.  Closures take one of two arguments:

* a *row id* -- the single-binding filters the scans apply before building
  any scope, whose column reads index the table's column lists
  (:attr:`repro.engine.storage.TableStorage.columns`);
* a *scope* (binding -> row dict) -- everything else: projection, ORDER BY
  and GROUP BY keys, aggregate arguments, HAVING, UPDATE ``SET`` values
  and multi-table conjuncts.

Scans filter a chunk of row ids at a time through *kernels* (the
selection-vector design of MonetDB/X100): :meth:`ExprEvaluator.row_kernels`
compiles each atomic filter into a ``sel -> list[int]`` that keeps the row
ids in *sel* whose row passes, reading the column lists it was compiled
against.  Each kernel runs over the survivors of the one before it, so a
row reaches a predicate exactly when row-at-a-time short-circuit
evaluation would take it there.  The common shapes -- ``column <op>
constant`` and ``column BETWEEN number AND number`` -- inline their test
in a list comprehension.  Over a column whose values all have the
constant's kind (the storage's ``kinds``) the test is the bare
comparison, and ``=`` searches a range chunk in C with ``list.index``,
as the join-edge kernel does; over any other column, ``column = str``,
``column <op> number`` and BETWEEN fall back to the shared semantics for
an off-type value, any other ``column op constant`` calls its
:data:`_COMPARE` test.  Every other predicate calls its compiled row
closure.

SQL three-valued logic is approximated with Python ``None`` propagation
-- a comparison involving NULL is not satisfied, matching WHERE-clause
semantics.  :func:`_sql_eq`, :func:`_like` and the operator tables
:data:`_COMPARE` and :data:`_ARITH` are the single definition of those
semantics.  Errors a statement can only hit on a row (a ``?`` parameter,
an aggregate outside aggregation) compile into closures that raise when
called, so a statement over an empty table still succeeds.
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache
from typing import AbstractSet, Any, Callable, Mapping, Optional, Sequence

from ..optimizer.query_info import QueryInfo, ResolutionError
from ..sqlparser import ast

Row = Mapping[str, Any]
Scope = Mapping[str, Row]          # binding name -> row
Compiled = Callable[[Any], Any]    # row id or scope -> value
#: Column name -> the table's values of that column, indexed by row id.
Columns = Mapping[str, Sequence[Any]]
#: Column name -> the types of the values the column has held.
Kinds = Mapping[str, AbstractSet[type]]
#: ``sel -> the row ids in sel whose row passes``, in *sel*'s order.
Kernel = Callable[[Sequence[int]], list]


def _sql_eq(left: Any, right: Any) -> bool:
    if left is None or right is None:
        return False
    if isinstance(left, bool) or isinstance(right, bool):
        return left == right
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return left == right
    return str(left) == str(right) if type(left) is not type(right) else left == right


@lru_cache(maxsize=1024)
def _like_regex(pattern: str) -> "re.Pattern[str]":
    regex = re.escape(pattern).replace(r"%", ".*").replace(r"_", ".")
    return re.compile(f"^{regex}$", re.DOTALL)


def _like(value: str, pattern: str) -> bool:
    return _like_regex(pattern).match(value) is not None


def _ordering(op: Callable[[Any, Any], bool]) -> Callable[[Any, Any], bool]:
    def test(left: Any, right: Any) -> bool:
        if left is None or right is None:
            return False
        try:
            return op(left, right)
        except TypeError:
            return False
    return test


#: Comparison operator -> test over two evaluated operands.
_COMPARE: dict[str, Callable[[Any, Any], bool]] = {
    "=": _sql_eq,
    "!=": lambda l, r: l is not None and r is not None and not _sql_eq(l, r),
    "<=>": lambda l, r: _sql_eq(l, r) or (l is None and r is None),
    "LIKE": lambda l, r: l is not None and r is not None and _like(str(l), str(r)),
    "<": _ordering(operator.lt),
    "<=": _ordering(operator.le),
    ">": _ordering(operator.gt),
    ">=": _ordering(operator.ge),
}


def _null_safe(op: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    def apply(left: Any, right: Any) -> Any:
        if left is None or right is None:
            return None
        try:
            return op(left, right)
        except TypeError:
            return None
    return apply


#: Arithmetic operator -> ``left op right`` with NULL propagation; type
#: errors and division by zero yield NULL.
_ARITH: dict[str, Callable[[Any, Any], Any]] = {
    "+": _null_safe(operator.add),
    "-": _null_safe(operator.sub),
    "*": _null_safe(operator.mul),
    "/": _null_safe(lambda l, r: l / r if r else None),
    "%": _null_safe(lambda l, r: l % r if r else None),
}


def _all(tests: list[Compiled]) -> Compiled:
    """Conjunction of compiled predicates, stopping at the first false one."""
    if len(tests) == 2:
        first, second = tests
        return lambda arg: first(arg) and second(arg)

    def all_true(arg: Any) -> bool:
        for test in tests:
            if not test(arg):
                return False
        return True
    return all_true


def _raiser(exc: Exception) -> Compiled:
    def fail(_arg: Any) -> Any:
        raise exc
    return fail


def _const(value: Any) -> Compiled:
    return lambda _arg: value


class ExprEvaluator:
    """Compiles the expressions of one analyzed statement.

    Column names are resolved against the statement's bindings at compile
    time; a name no binding's table has raises :class:`ResolutionError`.
    """

    def __init__(self, info: QueryInfo, schema):
        self._info = info
        self._schema = schema

    def resolve_binding(self, ref: ast.ColumnRef) -> str:
        if ref.table is not None:
            table = self._info.bindings.get(ref.table)
            if table is None or not self._schema.table(table).has_column(ref.column):
                raise ResolutionError(
                    f"cannot resolve column {ref.table}.{ref.column}"
                )
            return ref.table
        matches = [
            binding
            for binding, table_name in self._info.bindings.items()
            if self._schema.table(table_name).has_column(ref.column)
        ]
        if len(matches) != 1:
            raise ResolutionError(f"cannot resolve column {ref.column!r}")
        return matches[0]

    # -- entry points ----------------------------------------------------------

    def value(self, expr: ast.Expr) -> Compiled:
        """``scope -> value`` for a scalar expression."""
        return _Compiler(self).value(expr)

    def predicate(self, expr: ast.Expr) -> Compiled:
        """``scope -> bool`` for a predicate; NULL comparisons yield False."""
        return _Compiler(self).test(expr)

    def row_kernels(
        self, exprs: Sequence[ast.Expr], columns: Columns, kinds: Kinds
    ) -> list[Kernel]:
        """One kernel per expression, in order, over the binding's
        *columns*, whose value types *kinds* covers.

        Each expression must reference columns of a single binding (the
        atomic filters of ``QueryInfo.filters``).  Running each kernel over
        the survivors of the one before is the short-circuit conjunction.
        """
        compiler = _Compiler(self, columns)
        return [
            _column_kernel(expr, columns, kinds) or compiler.kernel(expr)
            for expr in exprs
        ]


class _Compiler:
    """Turns AST nodes into closures over a row id (given the binding's
    *columns*) or over a scope."""

    def __init__(self, evaluator: ExprEvaluator, columns: Optional[Columns] = None):
        self._evaluator = evaluator
        self._columns = columns

    def _column(self, ref: ast.ColumnRef) -> Compiled:
        column = ref.column
        if self._columns is not None:
            return self._columns[column].__getitem__
        binding = self._evaluator.resolve_binding(ref)

        def fetch(scope: Scope) -> Any:
            row = scope.get(binding)
            return None if row is None else row.get(column)
        return fetch

    def kernel(self, expr: ast.Expr) -> Kernel:
        """The generic kernel: *expr*'s row-id closure applied per row."""
        test = self.test(expr)
        return lambda sel: [i for i in sel if test(i)]

    # -- scalars ---------------------------------------------------------------

    def value(self, expr: ast.Expr) -> Compiled:
        if isinstance(expr, ast.Literal):
            return _const(expr.value)
        if isinstance(expr, ast.ColumnRef):
            return self._column(expr)
        if isinstance(expr, ast.Arithmetic):
            return self._arithmetic(expr)
        if isinstance(expr, ast.Param):
            return _raiser(ValueError("cannot execute a parameterized query (`?`)"))
        if isinstance(expr, ast.FuncCall):
            return _raiser(ValueError(
                f"aggregate {expr.name} outside aggregation context"
            ))
        # Boolean sub-expression used as a value.
        return self.test(expr)

    def _arithmetic(self, expr: ast.Arithmetic) -> Compiled:
        left, right = self.value(expr.left), self.value(expr.right)
        apply = _ARITH[expr.op]
        return lambda arg: apply(left(arg), right(arg))

    # -- predicates ------------------------------------------------------------

    def test(self, expr: ast.Expr) -> Compiled:
        if isinstance(expr, ast.And):
            return _all([self.test(item) for item in expr.items])
        if isinstance(expr, ast.Or):
            items = [self.test(item) for item in expr.items]
            return lambda arg: any(item(arg) for item in items)
        if isinstance(expr, ast.Not):
            item = self.test(expr.item)
            return lambda arg: not item(arg)
        if isinstance(expr, ast.Comparison):
            return self._comparison(expr)
        if isinstance(expr, ast.InList):
            return self._in_list(expr)
        if isinstance(expr, ast.Between):
            return self._between(expr)
        if isinstance(expr, ast.IsNull):
            operand = self.value(expr.expr)
            if expr.negated:
                return lambda arg: operand(arg) is not None
            return lambda arg: operand(arg) is None
        if isinstance(expr, ast.Literal):
            return _const(bool(expr.value))
        return _raiser(ValueError(f"cannot evaluate predicate {expr.to_sql()}"))

    def _comparison(self, expr: ast.Comparison) -> Compiled:
        test = _COMPARE[expr.op]
        left, right = self.value(expr.left), self.value(expr.right)
        return lambda arg: test(left(arg), right(arg))

    def _in_list(self, expr: ast.InList) -> Compiled:
        operand = self.value(expr.expr)
        negated = expr.negated
        if all(isinstance(item, ast.Literal) for item in expr.items):
            constants = tuple(item.value for item in expr.items)
            return lambda arg: _member(operand(arg), constants, negated)
        items = [self.value(item) for item in expr.items]

        def member(arg: Any) -> bool:
            value = operand(arg)
            if value is None:      # the list is not evaluated
                return False
            return _member(value, [item(arg) for item in items], negated)
        return member

    def _between(self, expr: ast.Between) -> Compiled:
        negated = expr.negated
        operand = self.value(expr.expr)
        low, high = self.value(expr.low), self.value(expr.high)
        return lambda arg: _between(operand(arg), low(arg), high(arg), negated)


def _member(value: Any, items: Sequence[Any], negated: bool) -> bool:
    if value is None:
        return False
    found = any(_sql_eq(value, item) for item in items)
    return (not found) if negated else found


def _between(value: Any, low: Any, high: Any, negated: bool) -> bool:
    if value is None or low is None or high is None:
        return False
    try:
        result = low <= value <= high
    except TypeError:
        return False
    return (not result) if negated else result


#: Types a numeric kernel compares inline; ``bool`` is not one of them.
_NUMBER = (int, float)
_NUMBER_KINDS = frozenset(_NUMBER)
_STR_KINDS = frozenset((str,))


def _column_kernel(
    expr: ast.Expr, columns: Columns, kinds: Kinds
) -> Optional[Kernel]:
    """The specialised kernel for ``column op constant`` or ``column
    BETWEEN number AND number``; None for any other shape.

    Each kernel equals ``_COMPARE[op]`` (or :func:`_between`) on every
    value.  Over a *uniform* column -- every value it ever held has the
    constant's kind, number or str (*kinds*) -- that is the bare Python
    comparison.  Over any other column the kernel inlines the test for
    values of the constant's kind and calls the shared function for the
    rest.
    """
    if isinstance(expr, ast.Between):
        if (
            expr.negated
            or not isinstance(expr.expr, ast.ColumnRef)
            or not isinstance(expr.low, ast.Literal)
            or not isinstance(expr.high, ast.Literal)
            or type(expr.low.value) not in _NUMBER
            or type(expr.high.value) not in _NUMBER
        ):
            return None
        column, lo, hi = expr.expr.column, expr.low.value, expr.high.value
        values = columns[column]
        if kinds[column] <= _NUMBER_KINDS:
            return lambda sel: [i for i in sel if lo <= values[i] <= hi]
        return _between_kernel(values, lo, hi)
    if not (
        isinstance(expr, ast.Comparison)
        and isinstance(expr.left, ast.ColumnRef)
        and isinstance(expr.right, ast.Literal)
    ):
        return None
    column, constant, op = expr.left.column, expr.right.value, expr.op
    values, test = columns[column], _COMPARE[op]
    kind = type(constant)
    if op in _UNIFORM_KERNELS and (
        kind in _NUMBER and kinds[column] <= _NUMBER_KINDS
        or kind is str and kinds[column] <= _STR_KINDS
    ):
        return _UNIFORM_KERNELS[op](values, constant)
    if op == "=" and kind is str:
        return _eq_str_kernel(values, constant)
    if op in _NUMBER_KERNELS and kind in _NUMBER:
        return _NUMBER_KERNELS[op](values, constant, test)
    return lambda sel: [i for i in sel if test(values[i], constant)]


#: Matches an equality kernel finds in a range chunk with ``list.index``
#: before it tests the rest of the chunk in the comprehension: a search
#: costs about three comprehension steps per match, so it only pays while
#: matches are sparse.
SEARCH_MATCHES = 32


def _equal_kernel(values: Sequence[Any], c: Any) -> Kernel:
    """``[i for i in sel if values[i] == c]``, with a range chunk searched
    in C by ``values.index(c, i, stop)``.

    ``list.index`` also takes the identical object as equal, so a *c* that
    does not equal itself (NaN) keeps the comprehension.
    """
    if c != c:
        return lambda sel: [i for i in sel if values[i] == c]
    find = values.index
    searches = range(SEARCH_MATCHES)

    def kernel(sel):
        if type(sel) is not range or sel.step != 1:
            return [i for i in sel if values[i] == c]
        out: list[int] = []
        i, stop = sel.start, sel.stop
        try:
            for _ in searches:
                i = find(c, i, stop) + 1
                out.append(i - 1)
        except ValueError:
            return out
        out += [j for j in range(i, stop) if values[j] == c]
        return out
    return kernel


# One factory per operator: the comparison then runs as inline bytecode in
# the comprehension instead of as a call per row.

#: Comparison operator -> kernel factory ``(values, c)`` for a uniform
#: column, where ``_COMPARE[op]`` is the bare comparison.
_UNIFORM_KERNELS: dict[str, Callable[[Sequence[Any], Any], Kernel]] = {
    "=": _equal_kernel,
    "!=": lambda values, c: lambda sel: [i for i in sel if values[i] != c],
    "<": lambda values, c: lambda sel: [i for i in sel if values[i] < c],
    "<=": lambda values, c: lambda sel: [i for i in sel if values[i] <= c],
    ">": lambda values, c: lambda sel: [i for i in sel if values[i] > c],
    ">=": lambda values, c: lambda sel: [i for i in sel if values[i] >= c],
}


def _eq_str_kernel(values: Sequence[Any], c: str) -> Kernel:
    def kernel(sel):
        return [
            i for i in sel
            if (v == c if type(v := values[i]) is str else _sql_eq(v, c))
        ]
    return kernel


def _eq_kernel(values: Sequence[Any], c: Any, test: Callable) -> Kernel:
    def kernel(sel):
        return [
            i for i in sel
            if (v == c if type(v := values[i]) in _NUMBER else test(v, c))
        ]
    return kernel


def _lt_kernel(values: Sequence[Any], c: Any, test: Callable) -> Kernel:
    def kernel(sel):
        return [
            i for i in sel
            if (v < c if type(v := values[i]) in _NUMBER else test(v, c))
        ]
    return kernel


def _le_kernel(values: Sequence[Any], c: Any, test: Callable) -> Kernel:
    def kernel(sel):
        return [
            i for i in sel
            if (v <= c if type(v := values[i]) in _NUMBER else test(v, c))
        ]
    return kernel


def _gt_kernel(values: Sequence[Any], c: Any, test: Callable) -> Kernel:
    def kernel(sel):
        return [
            i for i in sel
            if (v > c if type(v := values[i]) in _NUMBER else test(v, c))
        ]
    return kernel


def _ge_kernel(values: Sequence[Any], c: Any, test: Callable) -> Kernel:
    def kernel(sel):
        return [
            i for i in sel
            if (v >= c if type(v := values[i]) in _NUMBER else test(v, c))
        ]
    return kernel


#: Comparison operator -> numeric kernel factory ``(values, c, fallback)``.
_NUMBER_KERNELS: dict[str, Callable[[Sequence[Any], Any, Callable], Kernel]] = {
    "=": _eq_kernel,
    "<": _lt_kernel,
    "<=": _le_kernel,
    ">": _gt_kernel,
    ">=": _ge_kernel,
}


def _between_kernel(values: Sequence[Any], lo: Any, hi: Any) -> Kernel:
    def kernel(sel):
        return [
            i for i in sel
            if (lo <= v <= hi if type(v := values[i]) in _NUMBER
                else _between(v, lo, hi, False))
        ]
    return kernel


def edge_kernel(values: Sequence[Any], value: Any) -> Kernel:
    """Kernel for the join edge ``column = value`` over the column's
    *values*, *value* taken from the outer row: the executor's edge test,
    ``left is not None and right is not None and left == right``."""
    if value is None:
        return lambda sel: []
    return _equal_kernel(values, value)


class Aggregator:
    """Accumulates one aggregate function over a group.

    *argument* is the compiled ``scope -> value`` of the function's
    argument (None for ``COUNT(*)``).
    """

    def __init__(self, func: ast.FuncCall, argument: Optional[Compiled] = None):
        self.func = func
        self.argument = argument
        self.count = 0
        self.total: Any = None
        self.min_value: Any = None
        self.max_value: Any = None
        self.distinct_values: set = set()

    def add(self, scope: Scope) -> None:
        if self.func.star:
            self.count += 1
            return
        value = self.argument(scope)
        if value is None:
            return
        if self.func.distinct:
            if value in self.distinct_values:
                return
            self.distinct_values.add(value)
        self.count += 1
        if self.func.name in ("SUM", "AVG"):
            self.total = value if self.total is None else self.total + value
        if self.func.name == "MIN":
            self.min_value = value if self.min_value is None else min(self.min_value, value)
        if self.func.name == "MAX":
            self.max_value = value if self.max_value is None else max(self.max_value, value)

    def result(self) -> Any:
        name = self.func.name
        if name == "COUNT":
            return self.count
        if name == "SUM":
            return self.total
        if name == "AVG":
            return None if self.count == 0 else self.total / self.count
        if name == "MIN":
            return self.min_value
        if name == "MAX":
            return self.max_value
        raise ValueError(f"unknown aggregate {name}")


class GroupEvaluator:
    """Compiles expressions over a finished group.

    A group *state* is ``(scope, accumulators)``: the group's first scope
    (``{}`` for a global aggregate over zero rows) and one
    :class:`Aggregator` per aggregate call of the select list, in *calls*
    order.  An aggregate call elsewhere (ORDER BY, HAVING) reads the
    select-list accumulator with the same SQL text; one that matches none
    reads an empty accumulator (COUNT = 0, others NULL).
    """

    def __init__(self, evaluator: ExprEvaluator, calls: Sequence[ast.FuncCall]):
        self._evaluator = evaluator
        self._calls = list(calls)

    def _slot(self, call: ast.FuncCall) -> Optional[int]:
        for i, known in enumerate(self._calls):
            if known is call:
                return i
        sql = call.to_sql()
        for i, known in enumerate(self._calls):
            if known.to_sql() == sql:
                return i
        return None

    def value(self, expr: ast.Expr) -> Compiled:
        """``state -> value``."""
        if isinstance(expr, ast.FuncCall) and expr.is_aggregate:
            slot = self._slot(expr)
            if slot is None:
                empty = Aggregator(expr)
                return lambda state: empty.result()
            return lambda state: state[1][slot].result()
        if isinstance(expr, ast.Arithmetic):
            left, right = self.value(expr.left), self.value(expr.right)
            apply = _ARITH[expr.op]
            return lambda state: apply(left(state), right(state))
        scalar = self._evaluator.value(expr)
        return lambda state: scalar(state[0])

    def test(self, expr: ast.Expr) -> Compiled:
        """``state -> bool`` for a HAVING clause."""
        if isinstance(expr, ast.And):
            return _all([self.test(item) for item in expr.items])
        if isinstance(expr, ast.Or):
            items = [self.test(item) for item in expr.items]
            return lambda state: any(item(state) for item in items)
        if isinstance(expr, ast.Not):
            item = self.test(expr.item)
            return lambda state: not item(state)
        if isinstance(expr, ast.Comparison):
            left, right = self.value(expr.left), self.value(expr.right)
            test = _COMPARE[expr.op]

            def compare(state: Any) -> bool:
                l, r = left(state), right(state)
                if l is None or r is None:
                    return False
                return test(l, r)
            return compare
        predicate = self._evaluator.predicate(expr)
        return lambda state: predicate(state[0])
