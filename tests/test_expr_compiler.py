"""Differential property test: compiled expressions vs the reference.

Random expression trees -- comparisons (``<=>`` and LIKE included),
IN/NOT IN, BETWEEN/NOT BETWEEN, IS [NOT] NULL, AND/OR/NOT, boolean
sub-expressions used as values, and arithmetic with ``/ 0`` and type
errors -- are compiled by :class:`repro.executor.ExprEvaluator` and
evaluated on rows mixing NULL, bool, int, float and str.  Every result
(value and type, or the exception type) must equal what the independent
:class:`repro.qa.reference.ReferenceDatabase` interpreter computes.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.catalog import Column, Table
from repro.catalog.schema import Schema
from repro.executor import ExprEvaluator
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
    # The fused single-binding filter evaluates the same tree on the bare row.
    assert _outcome(lambda: evaluator.row_filter([expr])(row)) == expected


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
    assert _outcome(lambda: _evaluator().row_filter(exprs)(row)) == expected


def test_column_filter_shapes_match_reference():
    """The filter shapes the row compiler specializes, ``column op
    constant`` and ``column [NOT] BETWEEN c1 AND c2``, exhaustively over
    values where SQL and Python equality differ."""
    evaluator, reference = _evaluator(), _reference()
    column = ast.ColumnRef(None, "a")
    shapes = [
        ast.Comparison(op, column, ast.Literal(constant))
        for op in COMPARISON_OPS for constant in TRICKY
    ] + [
        ast.Between(column, ast.Literal(low), ast.Literal(high), negated)
        for low in TRICKY for high in TRICKY for negated in (False, True)
    ]
    for expr in shapes:
        test = evaluator.row_filter([expr])
        for value in TRICKY:
            row = {"a": value}
            expected = _outcome(lambda: reference._truth(expr, {"t": row}, BINDINGS))
            assert _outcome(lambda: test(row)) == expected, (expr.to_sql(), value)


@settings(max_examples=200, deadline=None)
@given(
    st.builds(ast.InList, columns,
              st.lists(leaves, min_size=1, max_size=4).map(tuple), st.booleans()),
    st.fixed_dictionaries({name: tricky for name in COLUMNS}),
)
def test_in_list_items_evaluated_only_for_non_null_values(expr, row):
    expected = _outcome(lambda: _reference()._truth(expr, {"t": row}, BINDINGS))
    assert _outcome(lambda: _evaluator().row_filter([expr])(row)) == expected
