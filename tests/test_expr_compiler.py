"""Differential property test: compiled expressions vs the reference.

Random expression trees -- comparisons (``<=>`` and LIKE included),
IN/NOT IN, BETWEEN/NOT BETWEEN, IS [NOT] NULL, AND/OR/NOT, boolean
sub-expressions used as values, and arithmetic with ``/ 0`` and type
errors -- are compiled by :class:`repro.executor.ExprEvaluator` and
evaluated on rows mixing NULL, bool, int, float and str.  Every result
(value and type, or the exception type) must equal what the independent
:class:`repro.qa.reference.ReferenceDatabase` interpreter computes.  The
scans' selection-vector kernels must keep exactly the rows the compiled
closure and the reference accept.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.catalog import Column, Table
from repro.catalog.schema import Schema
from repro.executor import ExprEvaluator
from repro.executor.operators import SEARCH_MATCHES, _equal_kernel, edge_kernel
from repro.optimizer.query_info import QueryInfo
from repro.qa.reference import ReferenceDatabase, ReferenceError
from repro.sqlparser import ast

from .conftest import INT

COLUMNS = ("a", "b", "c", "d")
TABLE = Table("t", [Column(name, INT, nullable=True) for name in COLUMNS], ("a",))
BINDINGS = {"t": "t"}

# Values whose SQL equality differs from Python's (1 = '1', 1 = 1.0,
# TRUE = 1 but not 'True'), plus small random ones: small magnitudes keep
# string repetition (``'ab' * 9``) cheap.
TRICKY = [None, True, False, 0, 1, -1, 1.0, 0.5, "1", "1.0", "True", "", "a%"]
tricky = st.sampled_from(TRICKY)
values = st.one_of(
    tricky,
    st.integers(-9, 9),
    st.floats(-50, 50, allow_nan=False, width=16),
    st.text(alphabet="ab1%_", max_size=4),
)
columns = st.builds(
    ast.ColumnRef, st.sampled_from([None, "t"]), st.sampled_from(COLUMNS)
)
literals = st.builds(ast.Literal, values)
# A ``?`` raises when evaluated: it checks that errors surface only on the
# rows (and short-circuit paths) that reach them.
leaves = st.one_of(literals, columns, literals, columns, st.just(ast.Param()))


def _arithmetic(operands):
    return st.builds(
        ast.Arithmetic, st.sampled_from(["+", "-", "*", "/", "%"]), operands, operands
    )


scalar1 = st.one_of(leaves, _arithmetic(leaves))
scalar2 = st.one_of(scalar1, _arithmetic(scalar1))
COMPARISON_OPS = ["=", "!=", "<", "<=", ">", ">=", "<=>", "LIKE"]
comparison_ops = st.sampled_from(COMPARISON_OPS)


def _atoms(operands):
    return st.one_of(
        st.builds(ast.Comparison, comparison_ops, operands, operands),
        st.builds(
            ast.InList, operands,
            st.lists(scalar1, min_size=1, max_size=4).map(tuple), st.booleans(),
        ),
        st.builds(ast.Between, operands, scalar1, scalar1, st.booleans()),
        st.builds(ast.IsNull, operands, st.booleans()),
        literals,
    )


# A predicate may also appear where a value is expected.
atoms = _atoms(st.one_of(scalar2, _atoms(scalar2)))


@st.composite
def predicates(draw, depth: int = 2):
    """AND/OR/NOT trees over atoms, at most *depth* connectives deep."""
    kind = draw(st.sampled_from(["atom", "and", "or", "not"] if depth else ["atom"]))
    if kind == "atom":
        return draw(atoms)
    if kind == "not":
        return ast.Not(draw(predicates(depth - 1)))
    items = tuple(draw(st.lists(predicates(depth - 1), min_size=2, max_size=3)))
    return ast.And(items) if kind == "and" else ast.Or(items)


rows = st.fixed_dictionaries({name: values for name in COLUMNS})


def _evaluator() -> ExprEvaluator:
    return ExprEvaluator(
        QueryInfo(stmt=None, bindings=dict(BINDINGS)), Schema.from_tables([TABLE])
    )


def _reference() -> ReferenceDatabase:
    return ReferenceDatabase([TABLE], {})


def _columns(rows) -> dict:
    """*rows* as column lists, as ``TableStorage.columns`` holds them."""
    return {name: [row.get(name) for row in rows] for name in COLUMNS}


def _kinds(columns) -> dict:
    """The value types of each column, as ``TableStorage.kinds`` holds them."""
    return {name: set(map(type, values)) for name, values in columns.items()}


def _passes(exprs, rows) -> list:
    """Positions of *rows* that pass *exprs*' kernels, each run over the
    survivors of the one before, as a scan runs them."""
    sel = range(len(rows))
    columns = _columns(rows)
    for kernel in _evaluator().row_kernels(exprs, columns, _kinds(columns)):
        sel = kernel(sel)
    return list(sel)


def _outcome(thunk):
    try:
        result = thunk()
    except ReferenceError:     # the reference's "cannot evaluate" error
        return ("raises", "ValueError")
    except Exception as exc:   # the exception type is part of the contract
        return ("raises", type(exc).__name__)
    return ("value", type(result).__name__, repr(result))


@settings(max_examples=200, deadline=None)
@given(predicates(), rows)
def test_compiled_predicate_matches_reference(expr, row):
    scope = {"t": row}
    expected = _outcome(lambda: _reference()._truth(expr, scope, BINDINGS))
    evaluator = _evaluator()
    assert _outcome(lambda: evaluator.predicate(expr)(scope)) == expected
    # The scan's kernel evaluates the same tree on the bare row.
    assert _outcome(lambda: _passes([expr], [row]) == [0]) == expected


@settings(max_examples=150, deadline=None)
@given(st.one_of(scalar2, atoms), rows)
def test_compiled_value_matches_reference(expr, row):
    scope = {"t": row}
    expected = _outcome(lambda: _reference()._value(expr, scope, BINDINGS))
    assert _outcome(lambda: _evaluator().value(expr)(scope)) == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(atoms, min_size=2, max_size=4), rows)
def test_fused_filter_is_the_conjunction(exprs, row):
    expected = _outcome(
        lambda: _reference()._truth(ast.And(tuple(exprs)), {"t": row}, BINDINGS)
    )
    assert _outcome(lambda: _passes(exprs, [row]) == [0]) == expected


#: Constants of every kind a specialised kernel keys on, and off-type ones.
CONSTANTS = TRICKY + [17, -3, 2.5, 1e300, "b", "1e0"]
#: One row per value, in a mixed-type column.
MIXED_ROWS = [{"a": value, "b": 1} for value in TRICKY + [17, 2.5, "b", 10**20]]


def test_column_filter_shapes_match_reference():
    """Every kernel shape -- ``column = str``, ``column <op> number``,
    ``column BETWEEN number AND number``, the other ``column op constant``
    comparisons and ``[NOT] BETWEEN`` over any constants -- keeps exactly
    the rows its compiled closure and the reference accept, over a
    mixed-type column where SQL and Python equality differ."""
    evaluator, reference = _evaluator(), _reference()
    column = ast.ColumnRef(None, "a")
    shapes = [
        ast.Comparison(op, column, ast.Literal(constant))
        for op in COMPARISON_OPS for constant in CONSTANTS
    ] + [
        ast.Between(column, ast.Literal(low), ast.Literal(high), negated)
        for low in CONSTANTS for high in CONSTANTS for negated in (False, True)
    ]
    positions = range(len(MIXED_ROWS))
    columns = _columns(MIXED_ROWS)
    for expr in shapes:
        (kernel,) = evaluator.row_kernels([expr], columns, _kinds(columns))
        closure = evaluator.predicate(expr)
        expected = [
            i for i in positions
            if reference._truth(expr, {"t": MIXED_ROWS[i]}, BINDINGS)
        ]
        assert [i for i in positions if closure({"t": MIXED_ROWS[i]})] == expected
        assert kernel(positions) == expected, expr.to_sql()
        # A kernel run over survivors keeps their order and drops the rest.
        odd = list(positions)[1::2]
        assert kernel(odd) == [i for i in expected if i % 2], expr.to_sql()


#: Columns whose values all have one kind, numbers or strs: the kernels
#: compare them bare.
UNIFORM_COLUMNS = [
    [3, -1, 17, 0, 2.5, 1e300, 10**20, 1, 1.0, -3],
    ["b", "1", "", "a%", "True", "1e0", "ab", "b"],
]


def test_uniform_column_kernels_match_reference():
    """Over a column of only numbers or only strs, every kernel shape --
    the bare comparisons included -- keeps exactly the rows its closure
    and the reference accept, for constants of every kind."""
    evaluator, reference = _evaluator(), _reference()
    column = ast.ColumnRef(None, "a")
    shapes = [
        ast.Comparison(op, column, ast.Literal(constant))
        for op in COMPARISON_OPS for constant in CONSTANTS
    ] + [
        ast.Between(column, ast.Literal(low), ast.Literal(high), False)
        for low in CONSTANTS for high in CONSTANTS
    ]
    for values in UNIFORM_COLUMNS:
        table = [{"a": value, "b": 1} for value in values]
        columns = _columns(table)
        positions = range(len(table))
        for expr in shapes:
            (kernel,) = evaluator.row_kernels([expr], columns, _kinds(columns))
            expected = [
                i for i in positions
                if reference._truth(expr, {"t": table[i]}, BINDINGS)
            ]
            closure = evaluator.predicate(expr)
            assert [i for i in positions if closure({"t": table[i]})] == expected
            assert kernel(positions) == expected, expr.to_sql()
            odd = list(positions)[1::2]
            assert kernel(odd) == [i for i in expected if i % 2], expr.to_sql()


@settings(max_examples=150, deadline=None)
@given(st.lists(atoms, min_size=1, max_size=3), st.lists(rows, max_size=6))
def test_kernels_match_closure_and_reference(exprs, table):
    """A chain of kernels over many rows keeps the rows the conjunction's
    closure and the reference accept, and raises exactly when the
    row-at-a-time conjunction raises on some row."""
    conjunction = ast.And(tuple(exprs)) if len(exprs) > 1 else exprs[0]
    closure = _evaluator().predicate(conjunction)
    expected = _outcome(lambda: [
        i for i, row in enumerate(table)
        if _reference()._truth(conjunction, {"t": row}, BINDINGS)
    ])
    assert _outcome(lambda: [
        i for i, row in enumerate(table) if closure({"t": row})
    ]) == expected
    assert _outcome(lambda: _passes(exprs, table)) == expected


def test_parameter_after_false_conjunct_does_not_raise():
    """A ``?`` is evaluated only on rows that passed every kernel before
    it: a chain whose earlier conjunct rejects every row does not raise."""
    a, b = ast.ColumnRef(None, "a"), ast.ColumnRef(None, "b")
    table = [{"a": v, "b": 1} for v in TRICKY]
    param = ast.Comparison("=", b, ast.Param())
    for first in (
        ast.Comparison("=", a, ast.Literal(999)),
        ast.Comparison("=", a, ast.Literal("zz")),
        ast.Comparison(">", a, ast.Literal(10**9)),
        ast.Between(a, ast.Literal(100), ast.Literal(200), False),
        ast.IsNull(b, False),
    ):
        assert _passes([first, param], table) == []
        assert _passes([first, param], []) == []
    assert _outcome(lambda: _passes([ast.IsNull(a, False), param], table)) == (
        "raises", "ValueError"
    )


def test_edge_kernel_is_the_join_edge_test():
    """The join-edge kernel keeps ``left is not None and right is not None
    and left == right`` (Python equality: ``1`` matches ``1.0`` and
    ``True``, never ``'1'``)."""
    column = list(TRICKY)
    for right in TRICKY:
        expected = [
            i for i, left in enumerate(column)
            if left is not None and right is not None and left == right
        ]
        assert edge_kernel(column, right)(range(len(column))) == expected


#: One NaN object drawn into columns and as a constant: ``list.index``
#: takes it as equal to itself, the comprehension does not.
SHARED_NAN = float("nan")
#: Values whose equality is not identity: NULL, NaNs, ``0 == 0.0 ==
#: False``, ``1 == 1.0 == True`` and strs that look like numbers.
EQUALITY_VALUES = [None, SHARED_NAN, 0, 0.0, False, 1, 1.0, True, 2.5, "1", "a", ""]
equality_values = st.one_of(
    st.sampled_from(EQUALITY_VALUES), st.builds(float, st.just("nan"))
)


def _selections(n: int, start: int, stop: int) -> list:
    """Range chunks (step 1 or not) and id lists over *n* row ids."""
    ids = list(range(n))
    return [
        range(n), range(min(start, n), min(stop, n)), range(0, n, 2),
        range(n - 1, -1, -1), ids, ids[1::2], [],
    ]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(equality_values, max_size=120),
    equality_values,
    st.integers(0, 120),
    st.integers(0, 120),
)
def test_equality_kernels_match_the_comprehension(column, constant, start, stop):
    """The uniform ``=`` kernel and the join-edge kernel search a range
    chunk with ``list.index`` and return exactly the ids the comprehension
    returns, over any chunk, NULLs, NaNs and values equal across types."""
    for sel in _selections(len(column), start, stop):
        expected = [i for i in sel if column[i] == constant]
        assert _equal_kernel(column, constant)(sel) == expected
        assert edge_kernel(column, constant)(sel) == [
            i for i in expected if constant is not None and column[i] is not None
        ]


def test_equality_kernels_finish_dense_chunks_in_the_comprehension():
    """More matches than ``SEARCH_MATCHES`` in one chunk: the search stops
    and the comprehension tests the rest of the chunk."""
    column = [1, 1.0, True, 2, None, SHARED_NAN, "1"] * 40
    assert SEARCH_MATCHES < column.count(1) < len(column)
    for constant in (1, True, 2, SHARED_NAN, "1"):
        for sel in _selections(len(column), 5, 250):
            expected = [i for i in sel if column[i] == constant]
            assert _equal_kernel(column, constant)(sel) == expected
            assert edge_kernel(column, constant)(sel) == expected
    assert edge_kernel(column, None)(range(len(column))) == []


@settings(max_examples=200, deadline=None)
@given(
    st.builds(ast.InList, columns,
              st.lists(leaves, min_size=1, max_size=4).map(tuple), st.booleans()),
    st.fixed_dictionaries({name: tricky for name in COLUMNS}),
)
def test_in_list_items_evaluated_only_for_non_null_values(expr, row):
    expected = _outcome(lambda: _reference()._truth(expr, {"t": row}, BINDINGS))
    assert _outcome(lambda: _passes([expr], [row]) == [0]) == expected
