"""Schema-resolved query analysis.

:func:`analyze_query` turns a parsed statement plus a schema into a
:class:`QueryInfo`: table bindings, per-binding filter predicates, the join
graph, grouping/ordering columns and referenced columns.  Both the
optimizer (access path + join order selection) and AIM's candidate
generation (paper Sec. IV, Table I "column usage metadata / structural
metadata") consume this single analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..catalog import CatalogError, Schema, Table
from ..sqlparser import ast
from ..sqlparser.predicates import (
    AtomicPredicate,
    classify_atomic,
    join_predicate,
    split_conjuncts,
)


class ResolutionError(ValueError):
    """Raised when a column or table reference cannot be resolved."""


@dataclass(frozen=True)
class JoinEdge:
    """One equi-join predicate: an edge in the table join graph (Fig 2)."""

    left_binding: str
    left_column: str
    right_binding: str
    right_column: str

    def other(self, binding: str) -> tuple[str, str]:
        """The (binding, column) on the opposite side of *binding*."""
        if binding == self.left_binding:
            return self.right_binding, self.right_column
        if binding == self.right_binding:
            return self.left_binding, self.left_column
        raise KeyError(binding)

    def column_of(self, binding: str) -> str:
        """The column this edge touches on *binding*'s side."""
        if binding == self.left_binding:
            return self.left_column
        if binding == self.right_binding:
            return self.right_column
        raise KeyError(binding)

    def touches(self, binding: str) -> bool:
        return binding in (self.left_binding, self.right_binding)


@dataclass(frozen=True)
class OrderColumn:
    """One resolved ORDER BY column."""

    binding: str
    column: str
    desc: bool


@dataclass
class QueryInfo:
    """Structural metadata of one SELECT/DML statement.

    Attributes:
        stmt: the analyzed statement.
        bindings: binding name (alias or table name) -> real table name.
        filters: per binding, the atomic predicates appearing as top-level
            WHERE/ON conjuncts (sargable and residual alike).
        complex_conjuncts: non-atomic top-level conjuncts (OR trees etc.)
            with the set of bindings they touch.
        join_edges: equi-join predicates between bindings.
        group_by: resolved GROUP BY columns (binding, column), in order.
        order_by: resolved ORDER BY columns.
        referenced: per binding, every column the query touches (select
            list, predicates, grouping, ordering).  Drives covering-index
            construction (``ReferencedColumns`` in Algorithms 4/6/7).
        select_star: the query projects ``*`` (covering is impossible
            unless the index holds every column).
        straight_join: join order is predetermined (MySQL STRAIGHT_JOIN).
        limit: LIMIT value if present (``-1`` for a parameterized limit).
        cache_sql: the statement's canonical SQL text.  The what-if
            evaluator renders it at the statement's first plan request and
            keys its caches on it; empty until then, so statements that are
            never what-if planned never render it.
    """

    stmt: ast.Statement
    bindings: dict[str, str] = field(default_factory=dict)
    filters: dict[str, list[AtomicPredicate]] = field(default_factory=dict)
    complex_conjuncts: list[tuple[frozenset[str], ast.Expr]] = field(default_factory=list)
    join_edges: list[JoinEdge] = field(default_factory=list)
    group_by: list[tuple[str, str]] = field(default_factory=list)
    order_by: list[OrderColumn] = field(default_factory=list)
    referenced: dict[str, set[str]] = field(default_factory=dict)
    select_star: bool = False
    straight_join: bool = False
    limit: Optional[int] = None
    cache_sql: str = ""
    _usable_columns: Optional[dict[str, frozenset[str]]] = field(
        default=None, repr=False, compare=False
    )

    def sargable_filters(self, binding: str) -> list[AtomicPredicate]:
        """Filter predicates an index on *binding* could serve."""
        return [p for p in self.filters.get(binding, []) if p.is_sargable]

    def edges_of(self, binding: str) -> list[JoinEdge]:
        return [e for e in self.join_edges if e.touches(binding)]

    def joined_bindings(self, binding: str) -> set[str]:
        """Bindings sharing at least one join predicate with *binding*."""
        return {e.other(binding)[0] for e in self.edges_of(binding)}

    def usable_columns(self) -> dict[str, frozenset[str]]:
        """Per real table: columns whose presence in an index key can
        possibly change this SELECT's plan.

        Mirrors the access-path enumerator's usefulness test
        (:func:`repro.optimizer.access_path.enumerate_paths` rejects any
        index path that matches no equality/range predicate and satisfies
        no interesting order): an index is a candidate access path only if
        one of its key columns

        * carries a sargable (eq-class or range) filter predicate,
        * sits on a join edge (it may become a probe equality once the
          other side is bound),
        * or appears in GROUP BY / ORDER BY.

        An index on a table the query touches but with *no* usable column
        is therefore invisible to the optimizer for this query, and the
        what-if layer prunes it without an optimizer call.  The map is
        computed once per analyzed statement and shared by every
        evaluator holding this ``QueryInfo``.

        Only meaningful for SELECT statements: DML plans charge
        maintenance for *every* index on the written table, so DML must
        never be pruned by columns.
        """
        if self._usable_columns is None:
            per_table: dict[str, set[str]] = {}
            for binding, table in self.bindings.items():
                cols = per_table.setdefault(table, set())
                for pred in self.filters.get(binding, []):
                    if pred.is_sargable:
                        cols.add(pred.column.column)
                for edge in self.join_edges:
                    if edge.touches(binding):
                        cols.add(edge.column_of(binding))
                for g_binding, column in self.group_by:
                    if g_binding == binding:
                        cols.add(column)
                for item in self.order_by:
                    if item.binding == binding:
                        cols.add(item.column)
            self._usable_columns = {
                table: frozenset(cols) for table, cols in per_table.items()
            }
        return self._usable_columns


def analyze_query(stmt: ast.Statement, schema: Schema) -> QueryInfo:
    """Resolve and analyze *stmt* against *schema*."""
    if isinstance(stmt, ast.Select):
        info = _analyze_select(stmt, schema)
    elif isinstance(stmt, (ast.Insert, ast.Update, ast.Delete)):
        info = _analyze_dml(stmt, schema)
    else:
        raise TypeError(f"cannot analyze {type(stmt).__name__}")
    return info


def _analyze_select(stmt: ast.Select, schema: Schema) -> QueryInfo:
    info = QueryInfo(stmt=stmt)
    for ref in stmt.all_table_refs():
        table = schema.table(ref.name)   # raises CatalogError if unknown
        if ref.binding in info.bindings:
            raise ResolutionError(f"duplicate table binding {ref.binding!r}")
        info.bindings[ref.binding] = table.name
        info.filters[ref.binding] = []
        info.referenced[ref.binding] = set()
    info.straight_join = any(j.kind == "STRAIGHT" for j in stmt.joins)

    resolver = _Resolver(info, schema)

    # WHERE plus every JOIN ... ON condition contribute conjuncts alike.
    conjuncts = split_conjuncts(stmt.where)
    for join in stmt.joins:
        conjuncts.extend(split_conjuncts(join.condition))
    for conjunct in conjuncts:
        resolver.add_conjunct(conjunct)

    for item in stmt.items:
        if isinstance(item.expr, ast.Star):
            info.select_star = True
            if item.expr.table:
                binding = resolver.resolve_binding(item.expr.table)
                table = schema.table(info.bindings[binding])
                info.referenced[binding] |= set(table.column_names)
            else:
                for binding, table_name in info.bindings.items():
                    info.referenced[binding] |= set(
                        schema.table(table_name).column_names
                    )
            continue
        resolver.note_references(item.expr)

    for expr in stmt.group_by:
        ref = resolver.resolve_column_expr(expr)
        if ref is not None:
            info.group_by.append(ref)
    if stmt.having is not None:
        resolver.note_references(stmt.having)
    for order_item in stmt.order_by:
        ref = resolver.resolve_column_expr(order_item.expr)
        if ref is not None:
            info.order_by.append(OrderColumn(ref[0], ref[1], order_item.desc))
    info.limit = stmt.limit
    return info


def _analyze_dml(stmt: ast.Statement, schema: Schema) -> QueryInfo:
    if isinstance(stmt, ast.Insert):
        table_ref, where = stmt.table, None
    elif isinstance(stmt, ast.Update):
        table_ref, where = stmt.table, stmt.where
    else:
        assert isinstance(stmt, ast.Delete)
        table_ref, where = stmt.table, stmt.where
    info = QueryInfo(stmt=stmt)
    table = schema.table(table_ref.name)
    binding = table_ref.binding
    info.bindings[binding] = table.name
    info.filters[binding] = []
    info.referenced[binding] = set()
    resolver = _Resolver(info, schema)
    for conjunct in split_conjuncts(where):
        resolver.add_conjunct(conjunct)
    if isinstance(stmt, ast.Update):
        for col, expr in stmt.assignments:
            require_column(table, binding, col)
            info.referenced[binding].add(col)
            resolver.note_references(expr)
    if isinstance(stmt, ast.Insert):
        for col in stmt.columns:
            require_column(table, binding, col)
        info.referenced[binding] |= set(stmt.columns)
    return info


def require_column(table: Table, binding: str, column: str) -> None:
    """Raise :class:`ResolutionError` unless *table* has *column* (a DML
    statement's written column)."""
    if not table.has_column(column):
        raise ResolutionError(f"no column {column!r} in {binding} ({table.name})")


class _Resolver:
    """Resolves column references to (binding, column) pairs."""

    def __init__(self, info: QueryInfo, schema: Schema):
        self._info = info
        self._schema = schema

    def resolve_binding(self, name: str) -> str:
        if name in self._info.bindings:
            return name
        raise ResolutionError(f"unknown table binding {name!r}")

    def resolve(self, ref: ast.ColumnRef) -> tuple[str, str]:
        """Resolve a column reference to (binding, column)."""
        if ref.table is not None:
            binding = self.resolve_binding(ref.table)
            table = self._schema.table(self._info.bindings[binding])
            if not table.has_column(ref.column):
                raise ResolutionError(
                    f"no column {ref.column!r} in {binding} ({table.name})"
                )
            return binding, ref.column
        matches = [
            binding
            for binding, table_name in self._info.bindings.items()
            if self._schema.table(table_name).has_column(ref.column)
        ]
        if not matches:
            raise ResolutionError(f"unresolvable column {ref.column!r}")
        if len(matches) > 1:
            raise ResolutionError(
                f"ambiguous column {ref.column!r}: matches {matches}"
            )
        return matches[0], ref.column

    def resolve_column_expr(self, expr: ast.Expr) -> Optional[tuple[str, str]]:
        """Resolve a bare-column expression; notes refs for anything else."""
        if isinstance(expr, ast.ColumnRef):
            binding, column = self.resolve(expr)
            self._info.referenced[binding].add(column)
            return binding, column
        self.note_references(expr)
        return None

    def note_references(self, expr: ast.Expr) -> None:
        """Record every column an expression touches."""
        for ref in ast.column_refs(expr):
            binding, column = self.resolve(ref)
            self._info.referenced[binding].add(column)

    def add_conjunct(self, conjunct: ast.Expr) -> None:
        """Classify one top-level conjunct into the QueryInfo buckets.

        Each column reference is resolved once, in traversal order, so a
        bad statement raises the error of its first unresolvable
        reference.
        """
        info = self._info
        refs = [self.resolve(ref) for ref in ast.column_refs(conjunct)]
        for binding, column in refs:
            info.referenced[binding].add(column)
        # A join predicate is two bare columns, so *refs* is its two sides.
        if join_predicate(conjunct) is not None:
            (left_b, left_c), (right_b, right_c) = refs
            if left_b != right_b:
                info.join_edges.append(JoinEdge(left_b, left_c, right_b, right_c))
                return
            # Same binding on both sides: treat as a residual predicate.
        atomic = classify_atomic(conjunct)
        if atomic is not None:
            # One column against constants: *refs* holds just that column.
            ((binding, column),) = refs
            resolved = AtomicPredicate(
                ast.ColumnRef(binding, column), atomic.op, atomic.expr
            )
            info.filters[binding].append(resolved)
            return
        touched = frozenset(binding for binding, _column in refs)
        info.complex_conjuncts.append((touched, conjunct))
