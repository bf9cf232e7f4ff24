"""Selectivity estimation for predicates.

Estimates combine per-column statistics under the usual independence
assumption, with inclusion-exclusion for disjunctions.  Constants are read
from the AST when present; parameterized predicates (``?``) fall back to
uniform estimates, the same behaviour a DBMS exhibits for prepared
statements without parameter peeking.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..sqlparser import ast
from ..sqlparser.predicates import AtomicPredicate, classify_atomic
from ..stats import ColumnStats
from ..stats.column_stats import DEFAULT_RANGE_SELECTIVITY

#: Floor applied to conjunctions so long predicate chains never hit zero.
MIN_SELECTIVITY = 1e-9

#: Selectivity assumed for predicates we cannot analyze.
UNKNOWN_SELECTIVITY = 0.25

StatsLookup = Callable[[ast.ColumnRef], ColumnStats]


def constant_value(expr: ast.Expr):
    """Extract a Python constant from an expression, or None.

    Handles literals and constant arithmetic; parameters and columns yield
    None (unknown).
    """
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.Arithmetic):
        left = constant_value(expr.left)
        right = constant_value(expr.right)
        if isinstance(left, (int, float)) and isinstance(right, (int, float)):
            try:
                return _apply_arith(expr.op, left, right)
            except ZeroDivisionError:
                return None
    return None


def _apply_arith(op: str, left, right):
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return left / right
    if op == "%":
        return left % right
    raise ValueError(f"unknown arithmetic op {op!r}")


def atomic_selectivity(pred: AtomicPredicate, stats: ColumnStats) -> float:
    """Selectivity of one atomic predicate given its column's stats."""
    expr = pred.expr
    op = pred.op
    if op in ("=", "<=>"):
        assert isinstance(expr, ast.Comparison)
        value = constant_value(expr.right)
        if value is None:
            value = constant_value(expr.left)
        return stats.eq_selectivity(value)
    if op == "IN":
        assert isinstance(expr, ast.InList)
        values = [constant_value(item) for item in expr.items]
        known = [v for v in values if v is not None]
        return stats.in_selectivity(len(expr.items), known or None)
    if op == "NOT IN":
        assert isinstance(expr, ast.InList)
        return _complement(stats.in_selectivity(len(expr.items)))
    if op in ("<", "<=", ">", ">="):
        assert isinstance(expr, ast.Comparison)
        if isinstance(expr.left, ast.ColumnRef):
            value = constant_value(expr.right)
            return stats.range_selectivity(op, value)
        value = constant_value(expr.left)
        return stats.range_selectivity(op, value)
    if op == "BETWEEN":
        assert isinstance(expr, ast.Between)
        return stats.between_selectivity(
            constant_value(expr.low), constant_value(expr.high)
        )
    if op == "NOT BETWEEN":
        assert isinstance(expr, ast.Between)
        return _complement(
            stats.between_selectivity(
                constant_value(expr.low), constant_value(expr.high)
            )
        )
    if op == "IS NULL":
        return stats.is_null_selectivity()
    if op == "IS NOT NULL":
        return stats.is_null_selectivity(negated=True)
    if op == "LIKE":
        assert isinstance(expr, ast.Comparison)
        return stats.like_selectivity(constant_value(expr.right))
    if op == "NOT LIKE":
        inner = expr.item if isinstance(expr, ast.Not) else expr
        if isinstance(inner, ast.Comparison):
            return _complement(stats.like_selectivity(constant_value(inner.right)))
        return _complement(0.25)
    if op == "!=":
        return _complement(stats.eq_selectivity())
    return UNKNOWN_SELECTIVITY


def combined_range_selectivity(
    preds: Sequence[AtomicPredicate], stats: ColumnStats
) -> float:
    """Selectivity of all range predicates on ONE column, combined.

    One-sided bounds are intersected into an interval before estimation
    (``col >= a AND col < b`` is the b-a span, not the product of two
    half-open estimates).  LIKE predicates multiply in separately.
    """
    low = high = None
    low_op = high_op = None
    extra = 1.0
    bounded = False
    for pred in preds:
        expr = pred.expr
        if pred.op in (">", ">="):
            assert isinstance(expr, ast.Comparison)
            value = constant_value(expr.right if isinstance(expr.left, ast.ColumnRef) else expr.left)
            bounded = True
            if value is not None and (low is None or value > low):
                low, low_op = value, pred.op
        elif pred.op in ("<", "<="):
            assert isinstance(expr, ast.Comparison)
            value = constant_value(expr.right if isinstance(expr.left, ast.ColumnRef) else expr.left)
            bounded = True
            if value is not None and (high is None or value < high):
                high, high_op = value, pred.op
        elif pred.op == "BETWEEN":
            assert isinstance(expr, ast.Between)
            lo = constant_value(expr.low)
            hi = constant_value(expr.high)
            bounded = True
            if lo is not None and (low is None or lo > low):
                low, low_op = lo, ">="
            if hi is not None and (high is None or hi < high):
                high, high_op = hi, "<="
        else:
            extra *= atomic_selectivity(pred, stats)
    if not bounded:
        return max(MIN_SELECTIVITY, extra)
    if low is None and high is None:
        # Range predicates with unknown (parameterized) constants.
        return max(MIN_SELECTIVITY, DEFAULT_RANGE_SELECTIVITY * extra)
    if stats.histogram.empty:
        sel = DEFAULT_RANGE_SELECTIVITY
        if low is not None and high is not None:
            sel *= 0.5
        return max(MIN_SELECTIVITY, sel * extra)
    frac = stats.histogram.fraction_between(
        low, high,
        low_inclusive=(low_op != ">"),
        high_inclusive=(high_op != "<"),
    )
    non_null = 1.0 - stats.null_frac
    return max(MIN_SELECTIVITY, min(1.0, frac * non_null) * extra)


def conjunction_selectivity(
    preds: Sequence[AtomicPredicate], lookup: StatsLookup
) -> float:
    """Combined selectivity of a predicate conjunction (independence)."""
    sel = 1.0
    for pred in preds:
        sel *= atomic_selectivity(pred, lookup(pred.column))
    return max(MIN_SELECTIVITY, sel)


def expr_selectivity(expr: Optional[ast.Expr], lookup: StatsLookup) -> float:
    """Selectivity of an arbitrary predicate tree.

    AND multiplies, OR uses inclusion-exclusion, NOT complements; atomic
    leaves use column stats; anything else (join predicates inside OR,
    unsupported forms) contributes :data:`UNKNOWN_SELECTIVITY`.
    """
    if expr is None:
        return 1.0
    if isinstance(expr, ast.And):
        sel = 1.0
        for item in expr.items:
            sel *= expr_selectivity(item, lookup)
        return max(MIN_SELECTIVITY, sel)
    if isinstance(expr, ast.Or):
        miss = 1.0
        for item in expr.items:
            miss *= 1.0 - expr_selectivity(item, lookup)
        return max(MIN_SELECTIVITY, 1.0 - miss)
    if isinstance(expr, ast.Not):
        return _complement(expr_selectivity(expr.item, lookup))
    atomic = classify_atomic(expr)
    if atomic is not None:
        try:
            return atomic_selectivity(atomic, lookup(atomic.column))
        except KeyError:
            return UNKNOWN_SELECTIVITY
    return UNKNOWN_SELECTIVITY


def _complement(sel: float) -> float:
    return min(1.0, max(MIN_SELECTIVITY, 1.0 - sel))
