"""Plan execution: runs statements against stored rows.

The executor asks the optimizer for a plan over the catalog's built indexes,
through a cache that reuses a statement shape's plan while the planner's
inputs repeat (:meth:`Executor._plan`), and prepares it once per
statement: every expression is compiled into a
closure (:mod:`repro.executor.operators`), and each join step gets its
filter kernels, its join-edge checks and the multi-table conjuncts that
become evaluable there.  Index/seq scans filter :data:`SCAN_CHUNK` row
ids at a time over the table's column lists and feed a left-deep
pipeline of nested-loop probes or hash joins, followed by grouping,
ordering and projection.  Every operator
accounts its work in an :class:`~repro.engine.ExecutionMetrics`, which
the workload monitor then converts into ``cpu_avg`` and the discarded
data ratio.
"""

from __future__ import annotations

import itertools
import time
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Collection, Iterator, Optional, Sequence

from ..engine import Database, ExecutionMetrics
from ..engine.btree import wrap_key
from ..engine.storage import StorageError, TableStorage
from ..obs import PlanEstimate, emit
from ..optimizer import Optimizer
from ..optimizer.analysis_cache import LRUCache
from ..optimizer.optimizer import locator_select
from ..optimizer.plan import AccessPath, JoinStep, Plan
from ..optimizer.query_info import QueryInfo, require_column
from ..optimizer.selectivity import atomic_selectivity, constant_value
from ..sqlparser import ast, normalize_statement, parse
from ..sqlparser.predicates import IPP_OPS
from .analyze import ActualPlanStats
from .operators import (
    Aggregator, Compiled, ExprEvaluator, GroupEvaluator, Kernel, edge_kernel,
)

#: Cap on IN-list cartesian expansion for multi-subrange index scans.
MAX_SUBRANGES = 200

#: Rows a scan reads and filters at a time.
SCAN_CHUNK = 1024

#: Outer rows a single-edge hash join probes with a kernel over its build
#: side before it builds buckets.  A join with one outer row (a pinned
#: primary key, the measured case) skips the build; one with more pays a
#: single kernel probe on top of it, at most about a third of a build
#: (one build costs about 12 probes over 15k unfiltered rows, 7 over 60k
#: and 3.2 over a filtered 7k-row build side).
SMALL_PROBES = 1

#: Plans an executor's plan cache holds (least recently used evicted).
PLAN_CACHE_SIZE = 256


@dataclass
class ExecutionResult:
    """Outcome of executing one statement."""

    rows: list[tuple] = field(default_factory=list)
    rowcount: int = 0                    # affected rows for DML
    metrics: ExecutionMetrics = field(default_factory=ExecutionMetrics)
    plan: Optional[Plan] = None
    actual: Optional[ActualPlanStats] = None   # EXPLAIN ANALYZE tree

    def cpu_seconds(self, params) -> float:
        return self.metrics.cpu_seconds(params)


class Executor:
    """Executes parsed statements against a stored database."""

    def __init__(self, db: Database):
        if db.storage is None:
            raise RuntimeError("executor requires a stored database")
        self.db = db
        self.optimizer = Optimizer(db)
        self._plans = LRUCache(PLAN_CACHE_SIZE)
        self._plan_version = db.plan_version

    def execute(
        self,
        stmt: str | ast.Statement,
        analyze: bool = False,
        normalized: Optional[str] = None,
    ) -> ExecutionResult:
        """Execute a statement and return rows/rowcount plus metrics.

        With ``analyze=True`` (SELECT only) the result additionally
        carries an :class:`ActualPlanStats` tree of per-operator actuals
        -- EXPLAIN ANALYZE -- and per-node estimate-vs-actual comparisons
        are emitted into the decision journal as ``plan_estimate`` events.

        *normalized* is the statement's normalized SQL text when the
        caller has rendered it already (the workload monitor keys on it);
        otherwise the executor renders it when it needs it.
        """
        if isinstance(stmt, str):
            stmt = parse(stmt)
        if isinstance(stmt, ast.Select):
            result = self._execute_select(stmt, analyze, normalized)
        elif isinstance(stmt, ast.Insert):
            result = self._execute_insert(stmt)
        elif isinstance(stmt, ast.Update):
            result = self._execute_update(stmt, normalized)
        elif isinstance(stmt, ast.Delete):
            result = self._execute_delete(stmt, normalized)
        else:
            raise TypeError(f"cannot execute {type(stmt).__name__}")
        if result.actual is not None:
            sql = normalized or normalize_statement(stmt).to_sql()
            for _depth, node in result.actual.walk():
                emit(PlanEstimate(
                    sql=sql,
                    node=node.label,
                    est_rows=node.est_rows,
                    actual_rows=node.rows,
                    q_error=node.q_error,
                ))
        return result

    # -- planning ----------------------------------------------------------------

    def _plan(
        self, select: ast.Select, served: ast.Statement, normalized: Optional[str]
    ) -> Plan:
        """The plan of *select* over materialized indexes.

        *select* is the statement *served* itself or, for an UPDATE or
        DELETE, the SELECT that locates its rows; *normalized* is
        *served*'s normalized text, if known.  On a cache hit the plan the
        optimizer returned for an earlier statement with the same key is
        reused with *select*'s own analysis attached.  The cache holds
        plans of one :attr:`Database.plan_version`.
        """
        info = self.optimizer.analyze(select)
        key = self._plan_key(info, served, normalized)
        if key is None:
            return self.optimizer.explain(info)
        version = self.db.plan_version
        if version != self._plan_version:
            self._plans.clear()
            self._plan_version = version
        plan = self._plans.get(key)
        if plan is None:
            plan = self.optimizer.explain(info)
            self._plans.put(key, plan)
            return plan
        return replace(plan, info=info)

    def _plan_key(
        self, info: QueryInfo, served: ast.Statement, normalized: Optional[str]
    ) -> Optional[tuple]:
        """The plan cache key of *info*, or None when its shape is not
        cached: a complex conjunct, or a filter that is not
        equality-class (``=``, ``<=>``, ``IN``, ``IS NULL``).

        Statements with one normalized text differ only in literals, and
        for a cached shape the planner reads literals only through each
        filter's selectivity (per binding in binding order, each in filter
        order) and the LIMIT, which normalization erases; join edges
        compare columns.  The text names the statement kind, so a
        SELECT's plan and a DML locator never share a key.  The planner's
        other inputs are :attr:`Database.plan_version`, which
        :meth:`_plan` checks for the whole cache.
        """
        if info.complex_conjuncts:
            return None
        selectivities = []
        for binding, table in info.bindings.items():
            filters = info.filters.get(binding, ())
            if any(pred.op not in IPP_OPS for pred in filters):
                return None
            stats = self.db.stats.table(table)
            selectivities.append(tuple([
                atomic_selectivity(pred, stats.column(pred.column.column))
                for pred in filters
            ]))
        return (
            normalized or normalize_statement(served).to_sql(),
            tuple(selectivities),
            info.limit,
        )

    # -- SELECT ----------------------------------------------------------------

    def _execute_select(
        self, stmt: ast.Select, analyze: bool, normalized: Optional[str]
    ) -> ExecutionResult:
        started = time.perf_counter() if analyze else 0.0
        plan = self._plan(stmt, stmt, normalized)
        info = plan.info
        metrics = ExecutionMetrics()
        evaluator = ExprEvaluator(info, self.db.schema)
        pipeline = _Pipeline(
            self.db, info, plan, evaluator, metrics, collect_actuals=analyze
        )
        stream = pipeline.run()
        # Early termination: when the pipeline already delivers rows in
        # ORDER BY order (no sort planned) and there is no aggregation,
        # only LIMIT+OFFSET rows need to be produced.
        if (
            stmt.limit is not None
            and stmt.limit >= 0
            and not stmt.group_by
            and not stmt.distinct
            and not _has_aggregates(stmt)
            and (not stmt.order_by or plan.sort_rows == 0)
        ):
            stream = itertools.islice(stream, (stmt.offset or 0) + stmt.limit)
        scopes = list(stream)
        rows = self._project(stmt, info, evaluator, scopes, metrics)
        metrics.rows_sent = len(rows)
        result = ExecutionResult(
            rows=rows, rowcount=len(rows), metrics=metrics, plan=plan
        )
        if analyze:
            result.actual = _actual_tree(
                plan, pipeline, metrics, len(rows),
                time.perf_counter() - started,
            )
        return result

    def _project(
        self,
        stmt: ast.Select,
        info: QueryInfo,
        evaluator: ExprEvaluator,
        scopes: list[dict],
        metrics: ExecutionMetrics,
    ) -> list[tuple]:
        if stmt.group_by or _has_aggregates(stmt):
            rows = _aggregate(stmt, evaluator, scopes, metrics)
        else:
            emit_row = self._emitter(stmt, info, evaluator)
            rows = [emit_row(scope) for scope in scopes]
            if stmt.distinct:
                # Keep each surviving row's *own* scope: ORDER BY keys are
                # computed from scopes, so rows and scopes must stay paired.
                seen: set = set()
                unique = []
                unique_scopes = []
                for row, scope in zip(rows, scopes):
                    if row not in seen:
                        seen.add(row)
                        unique.append(row)
                        unique_scopes.append(scope)
                rows, scopes = unique, unique_scopes
            if stmt.order_by:
                keys = [evaluator.value(o.expr) for o in stmt.order_by]
                rows = _sorted_rows(stmt, keys, scopes, rows, metrics)
        rows = self._apply_limit(stmt, rows)
        return rows

    def _emitter(
        self, stmt: ast.Select, info: QueryInfo, evaluator: ExprEvaluator
    ) -> Callable[[dict], tuple]:
        """``scope -> output row``; ``*`` expands each binding's columns."""
        parts: list[tuple[Optional[str], Any]] = []
        for item in stmt.items:
            if not isinstance(item.expr, ast.Star):
                parts.append((None, evaluator.value(item.expr)))
                continue
            bindings = [item.expr.table] if item.expr.table else list(info.bindings)
            for binding in bindings:
                table = self.db.schema.table(info.bindings[binding])
                parts.append((binding, table.column_names))

        def emit_row(scope: dict) -> tuple:
            out: list[Any] = []
            for binding, part in parts:
                if binding is None:
                    out.append(part(scope))
                else:
                    out.extend(map(scope[binding].get, part))
            return tuple(out)
        return emit_row

    def _apply_limit(self, stmt, rows: list[tuple]) -> list[tuple]:
        offset = stmt.offset or 0
        if stmt.limit is not None and stmt.limit >= 0:
            return rows[offset : offset + stmt.limit]
        if offset:
            return rows[offset:]
        return rows

    # -- DML -----------------------------------------------------------------------

    # INSERT and UPDATE check their columns and primary keys before the
    # first write, so a statement that raises leaves storage unchanged.

    def _execute_insert(self, stmt: ast.Insert) -> ExecutionResult:
        metrics = ExecutionMetrics()
        storage = self.db._storage_for(stmt.table.name)
        table = storage.table
        for col in stmt.columns:
            require_column(table, stmt.table.binding, col)
        rows = [
            {col: constant_value(expr) for col, expr in zip(stmt.columns, value_row)}
            for value_row in stmt.rows
        ]
        _check_primary_keys(
            storage, [tuple(map(row.get, table.primary_key)) for row in rows]
        )
        for row in rows:
            storage.insert_row(row, metrics)
            metrics.pages_written += 1
        return ExecutionResult(rowcount=len(rows), metrics=metrics)

    def _execute_update(
        self, stmt: ast.Update, normalized: Optional[str]
    ) -> ExecutionResult:
        metrics = ExecutionMetrics()
        storage = self.db._storage_for(stmt.table.name)
        binding, table = stmt.table.binding, storage.table
        for col, _expr in stmt.assignments:
            require_column(table, binding, col)
        row_ids, plan = self._locate(stmt, metrics, normalized)
        # The locator's analysis has the UPDATE's one binding, so the SET
        # expressions compile against it.
        evaluator = ExprEvaluator(plan.info, self.db.schema)
        setters = [(col, evaluator.value(expr)) for col, expr in stmt.assignments]
        changes = []
        for row_id in row_ids:
            scope = {binding: storage.get_row(row_id)}
            changes.append({col: value(scope) for col, value in setters})
        if any(col in table.primary_key for col, _expr in stmt.assignments):
            columns = storage.columns
            _check_primary_keys(
                storage,
                [
                    tuple(change.get(col, columns[col][row_id])
                          for col in table.primary_key)
                    for row_id, change in zip(row_ids, changes)
                ],
                moving=set(row_ids),
            )
        for row_id, change in zip(row_ids, changes):
            storage.update_row(row_id, change, metrics)
            metrics.pages_written += 1
        return ExecutionResult(rowcount=len(row_ids), metrics=metrics, plan=plan)

    def _execute_delete(
        self, stmt: ast.Delete, normalized: Optional[str]
    ) -> ExecutionResult:
        metrics = ExecutionMetrics()
        row_ids, plan = self._locate(stmt, metrics, normalized)
        storage = self.db._storage_for(stmt.table.name)
        for row_id in row_ids:
            storage.delete_row(row_id, metrics)
            metrics.pages_written += 1
        return ExecutionResult(rowcount=len(row_ids), metrics=metrics, plan=plan)

    def _locate(
        self, stmt: ast.Update | ast.Delete, metrics, normalized: Optional[str]
    ) -> tuple[list[int], Plan]:
        """Row ids an UPDATE or DELETE writes, via its locator's planned
        access path."""
        plan = self._plan(locator_select(stmt), stmt, normalized)
        info = plan.info
        evaluator = ExprEvaluator(info, self.db.schema)
        pipeline = _Pipeline(self.db, info, plan, evaluator, metrics)
        return pipeline.row_ids(), plan


def _check_primary_keys(
    storage: TableStorage, keys: list[tuple], moving: Collection[int] = ()
) -> None:
    """Raise :class:`StorageError` unless the primary keys *keys*, one per
    row a statement writes, are non-NULL, distinct and held by no stored
    row outside *moving* (the rows an UPDATE re-keys)."""
    pk_index = storage.pk_index
    name = storage.table.name
    seen: set[tuple] = set()
    for key in keys:
        if None in key:
            raise StorageError(f"NULL primary key {key} in table {name}")
        flat = wrap_key(key)
        lo, hi = pk_index.span(key)
        holders = pk_index.rids[lo:hi]
        if flat in seen or any(row_id not in moving for row_id in holders):
            raise StorageError(f"duplicate primary key {key} in table {name}")
        seen.add(flat)


def _actual_tree(
    plan: Plan,
    pipeline: "_Pipeline",
    metrics: ExecutionMetrics,
    rows_sent: int,
    wall_seconds: float,
) -> ActualPlanStats:
    """Assemble the EXPLAIN ANALYZE tree from a pipeline's accumulators.

    The left-deep join chain nests drive-side-innermost (the driving scan
    is the deepest child, like a bottom-up EXPLAIN rendering); an explicit
    Sort node appears only when the execution actually performed one (a
    predicted sort may be elided, e.g. by hash aggregation), and the
    Result root accounts the projected output.
    """
    inner: Optional[ActualPlanStats] = None
    for node in pipeline.nodes:
        if inner is not None:
            node.children.append(inner)
        inner = node
    if metrics.sort_rows > 0:
        sort = ActualPlanStats(
            label="Sort",
            est_rows=plan.sort_rows if plan.sort_rows > 0 else metrics.sort_rows,
            est_loops=1.0,
            rows=metrics.sort_rows,
            loops=1,
        )
        if inner is not None:
            sort.children.append(inner)
        inner = sort
    root = ActualPlanStats(
        label="Result",
        est_rows=plan.rows_out,
        est_loops=1.0,
        rows=rows_sent,
        loops=1,
        wall_seconds=wall_seconds,
    )
    if inner is not None:
        root.children.append(inner)
    return root


def _has_aggregates(stmt: ast.Select) -> bool:
    return any(
        isinstance(node, ast.FuncCall) and node.is_aggregate
        for item in stmt.items
        if not isinstance(item.expr, ast.Star)
        for node in ast.iter_exprs(item.expr)
    )


def _aggregate(
    stmt: ast.Select, evaluator: ExprEvaluator, scopes: list[dict],
    metrics: ExecutionMetrics,
) -> list[tuple]:
    """Group *scopes* (first-seen order), then HAVING, projection, ORDER BY."""
    calls = [
        node
        for item in stmt.items
        if not isinstance(item.expr, ast.Star)
        for node in ast.iter_exprs(item.expr)
        if isinstance(node, ast.FuncCall) and node.is_aggregate
    ]
    arguments = [
        None if call.star else evaluator.value(call.args[0]) for call in calls
    ]
    group_keys = [evaluator.value(expr) for expr in stmt.group_by]
    groups: dict[tuple, tuple[dict, list[Aggregator]]] = {}
    for scope in scopes:
        key = tuple([group_key(scope) for group_key in group_keys])
        state = groups.get(key)
        if state is None:
            accumulators = [Aggregator(c, a) for c, a in zip(calls, arguments)]
            state = groups[key] = (scope, accumulators)
        for accumulator in state[1]:
            accumulator.add(scope)
    if not groups and not stmt.group_by:
        # A global aggregate over zero rows still returns one row
        # (COUNT(*) = 0, SUM/MIN/MAX/AVG = NULL).
        groups[()] = ({}, [Aggregator(c, a) for c, a in zip(calls, arguments)])

    group = GroupEvaluator(evaluator, calls)
    states = list(groups.values())
    if stmt.having is not None:
        having = group.test(stmt.having)
        states = [state for state in states if having(state)]
    outputs = [
        group.value(item.expr)
        for item in stmt.items
        if not isinstance(item.expr, ast.Star)
    ]
    rows = [tuple([output(state) for output in outputs]) for state in states]
    if stmt.order_by:
        keys = [group.value(o.expr) for o in stmt.order_by]
        rows = _sorted_rows(stmt, keys, states, rows, metrics)
    return rows


def _sorted_rows(
    stmt: ast.Select, keys: list[Compiled], inputs: list, rows: list[tuple],
    metrics: ExecutionMetrics,
) -> list[tuple]:
    """Sort *rows* by ORDER BY *keys* evaluated on their paired *inputs*."""
    descending = [o.desc for o in stmt.order_by]
    keyed = [
        (tuple([_sort_key(key(x), desc) for key, desc in zip(keys, descending)]), row)
        for x, row in zip(inputs, rows)
    ]
    metrics.sort_rows += len(keyed)
    keyed.sort(key=lambda pair: pair[0])
    return [row for _key, row in keyed]


def _sort_key(value: Any, desc: bool):
    """Total-order sort key with None first and DESC inversion."""
    none_rank = 0 if value is None else 1
    if value is None:
        payload: Any = 0
    elif isinstance(value, bool):
        payload = int(value)
    elif isinstance(value, (int, float)):
        payload = value
    else:
        payload = str(value)
    type_rank = 0 if isinstance(payload, (int, float)) else 1
    if desc:
        none_rank = -none_rank
        type_rank = -type_rank
        payload = _Reversed(payload)
    return (none_rank, type_rank, payload)


class _Reversed:
    """Inverts comparison order for DESC sort keys."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.value == self.value


class _Step:
    """One join step, prepared once per statement."""

    __slots__ = (
        "path", "binding", "join_method", "storage", "node", "kernels",
        "edges", "conjuncts", "eq_sources", "prefixes", "bounds", "reverse",
    )

    def __init__(self, step: JoinStep, storage: TableStorage,
                 node: Optional[ActualPlanStats]):
        self.path = step.path
        self.binding = step.path.binding
        self.join_method = step.join_method
        self.storage = storage
        self.node = node
        #: One kernel per atomic filter; each charges a predicate per row.
        self.kernels: list[Kernel] = []
        #: (values of the column here, bound binding, its column) per join
        #: edge to check.
        self.edges: list[tuple[list, str, str]] = []
        #: Multi-table conjuncts whose last binding is this step's.
        self.conjuncts: list[Compiled] = []
        #: Per leading eq column of an index path: (constants, None), or
        #: (None, (binding, column)) for a value taken from the outer row.
        self.eq_sources: list[tuple[Optional[list], Optional[tuple[str, str]]]] = []
        self.prefixes: Optional[list[tuple]] = None   # when all constant
        self.bounds: Optional[tuple] = None           # range, on first scan
        self.reverse = False


class _Pipeline:
    """Runs a plan's join pipeline, yielding scopes (binding -> row).

    Scans run their step's filter kernels over chunks of row ids, reading
    the table's column lists, and yield the ids of passing rows; join-edge
    checks and multi-table conjuncts run before a new scope is built (a
    nested-loop step over a seq scan tests its join edges as kernels in
    the scan), and a row dict is built only for a row that enters a scope.  Counters are
    charged by position: before the row at position *p* of a chunk is
    yielded, the rows up to *p* and their predicates have been charged, so
    a consumer that stops early (LIMIT) sees exactly the work row-at-a-time
    execution would have done.
    """

    def __init__(self, db: Database, info: QueryInfo, plan: Plan,
                 evaluator: ExprEvaluator, metrics: ExecutionMetrics,
                 collect_actuals: bool = False):
        self.db = db
        self.info = info
        self.metrics = metrics
        # EXPLAIN ANALYZE accumulators, one per join step (empty when off).
        self.nodes: list[ActualPlanStats] = (
            [
                ActualPlanStats(
                    label=step.path.describe(),
                    est_rows=step.rows_after,
                    est_loops=step.executions,
                )
                for step in plan.steps
            ]
            if collect_actuals
            else []
        )
        self.steps: list[_Step] = []
        bound: set[str] = set()
        for i, step in enumerate(plan.steps):
            prepared = _Step(
                step, db._storage_for(step.path.table),
                self.nodes[i] if self.nodes else None,
            )
            self._prepare(prepared, evaluator, bound)
            self.steps.append(prepared)
            bound.add(prepared.binding)

    def _prepare(self, step: _Step, evaluator: ExprEvaluator,
                 bound: set[str]) -> None:
        info, binding, storage = self.info, step.binding, step.storage
        columns = storage.columns
        step.kernels = evaluator.row_kernels(
            [pred.expr for pred in info.filters.get(binding, [])],
            columns, storage.kinds,
        )
        for column, other, other_column in info.joins[binding]:
            if other in bound:
                step.edges.append((columns[column], other, other_column))
        available = bound | {binding}
        step.conjuncts = [
            evaluator.predicate(expr)
            for touched, expr in info.complex_conjuncts
            if binding in touched and touched <= available
        ]
        path = step.path
        step.reverse = bool(
            path.order_satisfied
            and info.order_by
            and all(o.desc for o in info.order_by)
        )
        if path.method == "seq" or path.skip_scan:
            return
        # Only a nested-loop probe sees an outer row to take values from.
        outer = bound if step.join_method == "nlj" else set()
        for column in path.eq_columns:
            source = self._eq_source(binding, column, outer)
            if source is None:
                break
            step.eq_sources.append(source)
        if all(values is not None for values, _edge in step.eq_sources):
            step.prefixes = _expand_prefixes(
                [values for values, _edge in step.eq_sources]
            )

    def _eq_source(self, binding: str, column: str, outer: set[str]):
        """Where an index scan's equality value for *column* comes from."""
        for pred in self.info.filters.get(binding, []):
            if pred.column.column != column:
                continue
            if pred.op in ("=", "<=>"):
                value = constant_value(pred.expr.right)
                if value is None:
                    value = constant_value(pred.expr.left)
                if value is not None:
                    return [value], None
            elif pred.op == "IN":
                values = [constant_value(item) for item in pred.expr.items]
                if all(v is not None for v in values):
                    return _distinct_keys(values), None
            elif pred.op == "IS NULL":
                return [None], None
        for edge_column, other, other_column in self.info.joins[binding]:
            if edge_column == column and other in outer:
                return None, (other, other_column)
        return None

    # -- the pipeline ----------------------------------------------------------

    def run(self) -> Iterator[dict]:
        if not self.steps:
            return iter(())
        stream = self._drive()
        if self.nodes:
            self.nodes[0].loops = 1
            stream = self._observe(stream, self.nodes[0])
        for step in self.steps[1:]:
            if step.join_method == "hash":
                stream = self._hash_join(stream, step)
            else:
                stream = self._nested_loop(stream, step)
            if step.node is not None:
                stream = self._observe(stream, step.node)
        return stream

    def row_ids(self) -> list[int]:
        """Ids of the rows a single-table statement (DML WHERE) selects."""
        step = self.steps[0]
        ids = list(itertools.chain.from_iterable(self._scan_all(step)))
        if not step.conjuncts:
            return ids
        binding, conjuncts, row = step.binding, step.conjuncts, step.storage.row
        return [
            row_id for row_id in ids
            if self._conjuncts_ok(conjuncts, {binding: row(row_id)})
        ]

    def _observe(
        self, stream: Iterator, node: ActualPlanStats
    ) -> Iterator[dict]:
        """Count rows and inclusive wall time a stage produces/spends."""
        stream = iter(stream)
        while True:
            started = time.perf_counter()
            try:
                item = next(stream)
            except StopIteration:
                node.wall_seconds += time.perf_counter() - started
                return
            node.wall_seconds += time.perf_counter() - started
            node.rows += 1
            yield item

    def _drive(self) -> Iterator[dict]:
        step = self.steps[0]
        row, binding, conjuncts = step.storage.row, step.binding, step.conjuncts
        for row_id in self._scan(step, {}):
            scope = {binding: row(row_id)}
            if not conjuncts or self._conjuncts_ok(conjuncts, scope):
                yield scope

    def _nested_loop(self, stream: Iterator[dict], step: _Step) -> Iterator[dict]:
        row, binding, node = step.storage.row, step.binding, step.node
        edges, conjuncts = step.edges, step.conjuncts
        # A seq inner tests the join edges in its scan, as kernels bound to
        # the outer row's values; an index inner checks them per row.
        pushed = step.path.method == "seq"
        checked = [] if pushed else edges
        for scope in stream:
            if node is not None:
                node.loops += 1
            pushed_edges = [
                edge_kernel(values, scope[other].get(other_column))
                for values, other, other_column in edges
            ] if pushed else ()
            for row_id in self._scan(step, scope, pushed_edges):
                if checked and not self._edges_ok(checked, row_id, scope):
                    continue
                joined = {**scope, binding: row(row_id)}
                if not conjuncts or self._conjuncts_ok(conjuncts, joined):
                    yield joined

    def _hash_join(self, stream: Iterator[dict], step: _Step) -> Iterator[dict]:
        row, binding, node = step.storage.row, step.binding, step.node
        edges, conjuncts = step.edges, step.conjuncts
        if node is not None:
            node.loops += 1      # one build-side scan
        chunks = self._scan_all(step)
        for scope, row_ids in _hash_probes(stream, edges, chunks):
            for row_id in row_ids:
                if not self._edges_ok(edges, row_id, scope):
                    continue
                joined = {**scope, binding: row(row_id)}
                if not conjuncts or self._conjuncts_ok(conjuncts, joined):
                    yield joined

    # -- predicate application -------------------------------------------------

    def _edges_ok(self, edges, row_id: int, scope: dict) -> bool:
        metrics = self.metrics
        for values, other, other_column in edges:
            metrics.predicate_evals += 1
            left = values[row_id]
            right = scope[other].get(other_column)
            if left is None or right is None or left != right:
                return False
        return True

    def _conjuncts_ok(self, conjuncts: list[Compiled], scope: dict) -> bool:
        metrics = self.metrics
        for conjunct in conjuncts:
            metrics.predicate_evals += 1
            if not conjunct(scope):
                return False
        return True

    # -- scans -----------------------------------------------------------------

    def _scan(self, step: _Step, outer_scope: dict,
              edges: Sequence[Kernel] = ()) -> Iterator[int]:
        """Ids of the rows of *step*'s table that pass its kernels, then
        *edges* (a seq scan's pushed-down join edges), charged by position.

        Before the row at position *p* of a chunk is yielded, the rows up
        to *p* are charged, each with its filters, and so is every edge
        test made on them: an edge is tested on the rows that passed the
        filters and the edges before it, one predicate each, as
        :meth:`_edges_ok` charges them.  A consumer that stops early
        (LIMIT) therefore sees exactly the work row-at-a-time execution
        would have done.  A row deleted after its chunk was read is not
        yielded.
        """
        alive = step.storage.alive
        for chunk, survivors, tested, lookups in self._chunks(
            step, outer_scope, edges
        ):
            # Survivors keep the chunk's order; a range chunk (a seq scan
            # over an id range without tombstones) gives positions directly.
            offset = chunk.start if isinstance(chunk, range) else None
            charged, evals_charged = 0, 0
            for row_id in survivors:
                if offset is None:
                    position = chunk.index(row_id, charged) + 1
                else:
                    position = row_id - offset + 1
                # Edges run on seq scans only, whose ids ascend.
                evals = (
                    sum([bisect_right(p, row_id) for p in tested]) if tested else 0
                )
                self._charge(step, position - charged, evals - evals_charged,
                             lookups)
                charged, evals_charged = position, evals
                if alive[row_id]:
                    yield row_id
            self._charge(
                step, len(chunk) - charged,
                sum(map(len, tested)) - evals_charged, lookups,
            )

    def _scan_all(self, step: _Step) -> list[Sequence[int]]:
        """The ids :meth:`_scan` would yield, one sequence per chunk (a
        range chunk no kernel filtered stays a range), charged a chunk at
        a time: for a consumer that reads the whole scan before it
        produces a row (a hash-join build, a DML locate), where the totals
        are all an observer can see."""
        out: list[Sequence[int]] = []
        for chunk, survivors, _tested, lookups in self._chunks(step, {}, ()):
            self._charge(step, len(chunk), 0, lookups)
            out.append(survivors)
        return out

    def _charge(self, step: _Step, rows: int, edge_evals: int,
                lookups: Optional[int]) -> None:
        """Charge *rows* rows read by *step*'s scan, each with its filters,
        plus *edge_evals* join-edge tests.  An index scan (*lookups* not
        None) also reads an entry and *lookups* random pages per row."""
        metrics, node = self.metrics, step.node
        metrics.rows_read += rows
        metrics.predicate_evals += rows * len(step.kernels) + edge_evals
        pages = 0
        if lookups is not None:
            metrics.index_entries_read += rows
            pages = rows * lookups
            metrics.random_pages += pages
        if node is not None:
            node.rows_scanned += rows
            node.pages_read += pages

    def _chunks(self, step: _Step, outer_scope: dict, edges: Sequence[Kernel]):
        """The scan of *step* as chunks ``(chunk, survivors, tested,
        lookups)``: *chunk* holds the ids of the stored rows read,
        *survivors* those that pass the kernels and *edges*, *tested* the
        ids each edge was tested on, and *lookups* is None for a seq scan,
        else the random pages an index entry costs.  Only a seq scan takes
        *edges*.  Pages are charged as the scan reaches them."""
        if step.path.method == "seq":
            return self._seq_chunks(step, edges)
        return self._index_chunks(step, outer_scope)

    @staticmethod
    def _filter(step: _Step, chunk: Sequence[int],
                edges: Sequence[Kernel]) -> tuple[Sequence[int], list]:
        """Survivors of *chunk* after *step*'s kernels and *edges*, and the
        ids each edge was tested on."""
        survivors: Sequence[int] = chunk
        for kernel in step.kernels:
            survivors = kernel(survivors)
        tested = []
        for kernel in edges:
            tested.append(survivors)
            survivors = kernel(survivors)
        return survivors, tested

    def _seq_chunks(self, step: _Step, edges: Sequence[Kernel]):
        """A sequential scan over the row ids allocated when it starts,
        :data:`SCAN_CHUNK` ids at a time.

        A chunk holds the stored rows of its id range: tombstones are
        skipped, uncharged.  A row deleted after its chunk was read is
        never yielded: :meth:`_scan` checks ``storage.alive`` just before
        yielding it (the row's read stays charged).  No caller changes a
        table during a live scan -- DML collects :meth:`row_ids` before it
        writes -- so the check only keeps a misuse from handing out a
        missing id.
        """
        storage, node = step.storage, step.node
        pages = self.db.params.pages_for(storage.row_count, storage.table.row_width)
        self.metrics.seq_pages += pages
        if node is not None:
            node.pages_read += pages
        alive = storage.alive
        end = len(alive)
        for start in range(0, end, SCAN_CHUNK):
            stop = min(start + SCAN_CHUNK, end)
            chunk: Sequence[int] = range(start, stop)
            if alive.find(0, start, stop) >= 0:
                chunk = list(itertools.compress(chunk, alive[start:stop]))
            yield (chunk, *self._filter(step, chunk, edges), None)

    def _index_chunks(self, step: _Step, outer_scope: dict):
        """An index or PK scan, up to :data:`SCAN_CHUNK` entries at a time
        per key prefix."""
        path, storage, node = step.path, step.storage, step.node
        structure = (
            storage.pk_index
            if path.method == "pk"
            else storage.get_index(path.index.name)
        )
        if structure is None:
            # Index vanished between planning and execution; degrade safely.
            yield from self._seq_chunks(step, ())
            return
        if path.skip_scan:
            # Skip scan: the leading column has no predicate.  Execute as
            # a full index scan (bounds would bind the wrong column);
            # residual predicate evaluation keeps results correct.
            prefixes: list[tuple] = [()]
            low = high = None
            low_inc = high_inc = True
        else:
            prefixes = step.prefixes
            if prefixes is None:
                prefixes = _expand_prefixes([
                    values if values is not None
                    else [outer_scope[edge[0]].get(edge[1])]
                    for values, edge in step.eq_sources
                ])
            if step.bounds is None:
                step.bounds = self._range_bounds(path)
            low, high, low_inc, high_inc = step.bounds
        metrics = self.metrics
        # One random page per scan invocation reaches the leaf level: the
        # first probe's descent warms the internal B-tree nodes, so the
        # remaining prefixes (IN-list combinations) descend through cached
        # pages.  Leaf I/O is charged separately below from the entries
        # actually read, mirroring the optimizer's cost model.
        metrics.random_pages += 1
        if node is not None:
            node.pages_read += 1
        # Each entry read costs an index entry and, unless covering, a
        # random base-row page.
        lookups = 0 if path.covering else 1
        entry_width = (
            path.index.entry_width(storage.table) if path.method == "index" else 0
        )
        alive, rids, reverse = storage.alive, structure.rids, step.reverse
        for prefix in prefixes:
            entries = 0
            # Range bounds bind the key column right after the eq prefix;
            # they only apply when the whole prefix is concrete.
            full_prefix = len(prefix) == len(path.eq_columns)
            lo, hi = structure.span(
                prefix, low if full_prefix else None, high if full_prefix else None,
                low_inc, high_inc,
            )
            for start in (
                range(hi, lo, -SCAN_CHUNK) if reverse else range(lo, hi, SCAN_CHUNK)
            ):
                batch = (
                    rids[max(lo, start - SCAN_CHUNK):start][::-1] if reverse
                    else rids[start:min(start + SCAN_CHUNK, hi)]
                )
                # An entry whose row is gone is skipped, uncharged.
                chunk = list(itertools.compress(batch, map(alive.__getitem__, batch)))
                entries += len(chunk)
                yield (chunk, *self._filter(step, chunk, ()), lookups)
            if entry_width:
                leaf_pages = self.db.params.pages_for(entries, entry_width)
                metrics.seq_pages += leaf_pages
                if node is not None:
                    node.pages_read += leaf_pages

    def _range_bounds(self, path: AccessPath):
        low = high = None
        low_inc = high_inc = True
        if path.range_column is None:
            return low, high, low_inc, high_inc
        for pred in self.info.filters.get(path.binding, []):
            if pred.column.column != path.range_column or not pred.is_range:
                continue
            expr = pred.expr
            if pred.op in (">", ">="):
                value = constant_value(expr.right)
                if value is not None and (low is None or value > low):
                    low, low_inc = value, pred.op == ">="
            elif pred.op in ("<", "<="):
                value = constant_value(expr.right)
                if value is not None and (high is None or value < high):
                    high, high_inc = value, pred.op == "<="
            elif pred.op == "BETWEEN":
                lo = constant_value(expr.low)
                hi = constant_value(expr.high)
                if lo is not None and (low is None or lo > low):
                    low, low_inc = lo, True
                if hi is not None and (high is None or hi < high):
                    high, high_inc = hi, True
        return low, high, low_inc, high_inc


def _hash_probes(
    stream: Iterator[dict], edges: list, chunks: list[Sequence[int]]
) -> Iterator[tuple[dict, Sequence[int]]]:
    """Each outer scope of a hash join with the build row ids its hash
    bucket holds, in build order; *chunks* are the build side's ids.

    A single-edge join reads its first :data:`SMALL_PROBES` outer rows one
    at a time and finds each one's bucket with a kernel over the chunks;
    the buckets are built only when another outer row arrives.  Buckets
    key the join column (a scalar for one edge, else a tuple).
    """
    stream = iter(stream)
    if len(edges) == 1:
        ((values, other, other_column),) = edges
        for scope in itertools.islice(stream, SMALL_PROBES):
            bucket = _bucket_kernel(values, scope[other].get(other_column))
            yield scope, list(itertools.chain.from_iterable(map(bucket, chunks)))
        build_key = values.__getitem__

        def probe_key(scope: dict) -> Any:
            return scope[other].get(other_column)
    else:
        columns = [values for values, _b, _c in edges]

        def build_key(row_id: int) -> Any:
            return tuple([values[row_id] for values in columns])

        def probe_key(scope: dict) -> Any:
            return tuple([scope[b].get(c) for _values, b, c in edges])
    first = next(stream, None)
    if first is None:
        return
    buckets: defaultdict[Any, list[int]] = defaultdict(list)
    ids = list(itertools.chain.from_iterable(chunks))
    for key, row_id in zip(map(build_key, ids), ids):
        buckets[key].append(row_id)
    for scope in itertools.chain((first,), stream):
        yield scope, buckets.get(probe_key(scope), ())


def _bucket_kernel(values: Sequence[Any], key: Any) -> Kernel:
    """The build rows a hash bucket of *key* holds, as a kernel over the
    join column's *values*.  A dict lookup matches an equal key or the
    identical one, so a NULL or NaN key's bucket holds its identical
    values, which the edge check then charges and rejects."""
    if key is None or key != key:
        return lambda sel: [i for i in sel if values[i] is key]
    return edge_kernel(values, key)


def _distinct_keys(values: list) -> list:
    """*values* in order, without repeats as the index compares them
    (``5`` and ``5.0`` are one key)."""
    seen: set = set()
    out = []
    for value in values:
        key = wrap_key((value,))
        if key not in seen:
            seen.add(key)
            out.append(value)
    return out


def _expand_prefixes(per_column: list[list]) -> list[tuple]:
    """Concrete key prefixes for an index scan (IN-lists expand)."""
    combos: list[tuple] = [()]
    for values in per_column:
        combos = [c + (v,) for c in combos for v in values]
        if len(combos) > MAX_SUBRANGES:
            return [()]   # too many subranges: full index scan
    return combos
