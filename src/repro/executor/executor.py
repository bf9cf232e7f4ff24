"""Plan interpreter: executes statements against stored rows.

The executor asks the optimizer for a plan (materialized indexes only)
and interprets it: index/seq scans feed a left-deep pipeline of
nested-loop probes or hash joins, followed by grouping, ordering and
projection.  Every operator accounts its work in an
:class:`~repro.engine.ExecutionMetrics`, which the workload monitor then
converts into ``cpu_avg`` and the discarded data ratio.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from ..engine import Database, ExecutionMetrics
from ..engine.storage import TableStorage
from ..obs import PlanEstimate, emit, profile, record_execution_metrics
from ..optimizer import Optimizer
from ..optimizer.plan import AccessPath, JoinStep, Plan
from ..optimizer.query_info import QueryInfo
from ..optimizer.selectivity import constant_value
from ..sqlparser import ast, normalize_statement, parse
from .analyze import ActualPlanStats
from .operators import Aggregator, ExprEvaluator

#: Cap on IN-list cartesian expansion for multi-subrange index scans.
MAX_SUBRANGES = 200


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

    def execute(
        self, stmt: str | ast.Statement, analyze: bool = False
    ) -> ExecutionResult:
        """Execute a statement and return rows/rowcount plus metrics.

        With ``analyze=True`` (SELECT only) the result additionally
        carries an :class:`ActualPlanStats` tree of per-operator actuals
        -- EXPLAIN ANALYZE -- and per-node estimate-vs-actual comparisons
        are emitted into the decision journal as ``plan_estimate`` events.
        """
        if isinstance(stmt, str):
            stmt = parse(stmt)
        with profile("executor.execute"):
            if isinstance(stmt, ast.Select):
                result = self._execute_select(stmt, analyze=analyze)
            elif isinstance(stmt, ast.Insert):
                result = self._execute_insert(stmt)
            elif isinstance(stmt, ast.Update):
                result = self._execute_update(stmt)
            elif isinstance(stmt, ast.Delete):
                result = self._execute_delete(stmt)
            else:
                raise TypeError(f"cannot execute {type(stmt).__name__}")
        record_execution_metrics(result.metrics, type(stmt).__name__.lower())
        if result.actual is not None:
            sql = normalize_statement(stmt).to_sql()
            for _depth, node in result.actual.walk():
                emit(PlanEstimate(
                    sql=sql,
                    node=node.label,
                    est_rows=node.est_rows,
                    actual_rows=node.rows,
                    q_error=node.q_error,
                ))
        return result

    # -- SELECT ----------------------------------------------------------------

    def _execute_select(
        self, stmt: ast.Select, analyze: bool = False
    ) -> ExecutionResult:
        started = time.perf_counter() if analyze else 0.0
        plan = self.optimizer.explain(stmt, materialized_only=True)
        info = plan.info
        metrics = ExecutionMetrics()
        evaluator = ExprEvaluator(info, self.db.schema)
        pipeline = _Pipeline(
            self, info, plan, evaluator, metrics, collect_actuals=analyze
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
            rows = self._aggregate(stmt, info, evaluator, scopes, metrics)
        else:
            rows = [self._emit(stmt, info, evaluator, scope) for scope in scopes]
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
                rows = self._order(stmt, info, evaluator, scopes, rows, metrics)
        rows = self._apply_limit(stmt, rows)
        return rows

    def _emit(self, stmt, info, evaluator, scope) -> tuple:
        out: list[Any] = []
        for item in stmt.items:
            if isinstance(item.expr, ast.Star):
                bindings = (
                    [item.expr.table] if item.expr.table else list(info.bindings)
                )
                for binding in bindings:
                    row = scope[binding]
                    table = self.db.schema.table(info.bindings[binding])
                    out.extend(row.get(c) for c in table.column_names)
            else:
                out.append(evaluator.value(item.expr, scope))
        return tuple(out)

    def _aggregate(self, stmt, info, evaluator, scopes, metrics) -> list[tuple]:
        def group_key(scope) -> tuple:
            return tuple(
                evaluator.value(expr, scope) if not isinstance(expr, ast.ColumnRef)
                else evaluator.value(expr, scope)
                for expr in stmt.group_by
            )

        groups: dict[tuple, dict] = {}
        order: list[tuple] = []
        for scope in scopes:
            key = group_key(scope) if stmt.group_by else ()
            state = groups.get(key)
            if state is None:
                aggregators = {}
                for item in stmt.items:
                    if isinstance(item.expr, ast.Star):
                        continue
                    for node in ast.iter_exprs(item.expr):
                        if isinstance(node, ast.FuncCall) and node.is_aggregate:
                            aggregators[id(node)] = (node, Aggregator(node))
                state = {"scope": scope, "aggs": aggregators}
                groups[key] = state
                order.append(key)
            for _node, agg in state["aggs"].values():
                agg.add(evaluator, scope)

        if not groups and not stmt.group_by:
            # A global aggregate over zero rows still returns one row
            # (COUNT(*) = 0, SUM/MIN/MAX/AVG = NULL).
            aggregators = {}
            for item in stmt.items:
                if isinstance(item.expr, ast.Star):
                    continue
                for node in ast.iter_exprs(item.expr):
                    if isinstance(node, ast.FuncCall) and node.is_aggregate:
                        aggregators[id(node)] = (node, Aggregator(node))
            groups[()] = {"scope": {}, "aggs": aggregators}
            order.append(())

        rows = []
        emitted: list[tuple[tuple, dict]] = [(key, groups[key]) for key in order]
        if stmt.having is not None:
            emitted = [
                (key, state)
                for key, state in emitted
                if self._having_ok(stmt.having, evaluator, state)
            ]
        for _key, state in emitted:
            rows.append(self._emit_aggregate(stmt, evaluator, state))
        if stmt.order_by:
            rows = self._order_aggregated(stmt, evaluator, emitted, rows, metrics)
        return rows

    def _agg_value(self, expr: ast.Expr, evaluator, state) -> Any:
        """Evaluate an expression that may contain aggregate results."""
        if isinstance(expr, ast.FuncCall) and expr.is_aggregate:
            entry = state["aggs"].get(id(expr))
            if entry is not None:
                return entry[1].result()
            # Structurally equal aggregate (e.g. in HAVING): match by SQL.
            for node, agg in state["aggs"].values():
                if node.to_sql() == expr.to_sql():
                    return agg.result()
            fresh = Aggregator(expr)
            return fresh.result()
        if isinstance(expr, ast.Arithmetic):
            left = self._agg_value(expr.left, evaluator, state)
            right = self._agg_value(expr.right, evaluator, state)
            if left is None or right is None:
                return None
            return evaluator.value(
                ast.Arithmetic(expr.op, ast.Literal(left), ast.Literal(right)), {}
            )
        return evaluator.value(expr, state["scope"])

    def _emit_aggregate(self, stmt, evaluator, state) -> tuple:
        out = []
        for item in stmt.items:
            if isinstance(item.expr, ast.Star):
                continue
            out.append(self._agg_value(item.expr, evaluator, state))
        return tuple(out)

    def _having_ok(self, having: ast.Expr, evaluator, state) -> bool:
        if isinstance(having, ast.And):
            return all(self._having_ok(item, evaluator, state) for item in having.items)
        if isinstance(having, ast.Or):
            return any(self._having_ok(item, evaluator, state) for item in having.items)
        if isinstance(having, ast.Not):
            return not self._having_ok(having.item, evaluator, state)
        if isinstance(having, ast.Comparison):
            left = self._agg_value(having.left, evaluator, state)
            right = self._agg_value(having.right, evaluator, state)
            if left is None or right is None:
                return False
            probe = ast.Comparison(having.op, ast.Literal(left), ast.Literal(right))
            return evaluator.matches(probe, {})
        return evaluator.matches(having, state["scope"])

    def _order(self, stmt, info, evaluator, scopes, rows, metrics) -> list[tuple]:
        keyed = []
        for scope, row in zip(scopes, rows):
            key = tuple(
                _sort_key(evaluator.value(o.expr, scope), o.desc)
                for o in stmt.order_by
            )
            keyed.append((key, row))
        metrics.sort_rows += len(keyed)
        keyed.sort(key=lambda pair: pair[0])
        return [row for _key, row in keyed]

    def _order_aggregated(self, stmt, evaluator, emitted, rows, metrics) -> list[tuple]:
        keyed = []
        for (_key, state), row in zip(emitted, rows):
            key = tuple(
                _sort_key(self._agg_value(o.expr, evaluator, state), o.desc)
                for o in stmt.order_by
            )
            keyed.append((key, row))
        metrics.sort_rows += len(keyed)
        keyed.sort(key=lambda pair: pair[0])
        return [row for _key, row in keyed]

    def _apply_limit(self, stmt, rows: list[tuple]) -> list[tuple]:
        offset = stmt.offset or 0
        if stmt.limit is not None and stmt.limit >= 0:
            return rows[offset : offset + stmt.limit]
        if offset:
            return rows[offset:]
        return rows

    # -- DML -----------------------------------------------------------------------

    def _execute_insert(self, stmt: ast.Insert) -> ExecutionResult:
        metrics = ExecutionMetrics()
        storage = self.db._storage_for(stmt.table.name)
        for value_row in stmt.rows:
            row = {
                col: constant_value(expr)
                for col, expr in zip(stmt.columns, value_row)
            }
            storage.insert_row(row, metrics)
            metrics.pages_written += 1
        return ExecutionResult(rowcount=len(stmt.rows), metrics=metrics)

    def _execute_update(self, stmt: ast.Update) -> ExecutionResult:
        metrics = ExecutionMetrics()
        row_ids, plan = self._locate(stmt.table, stmt.where, metrics)
        storage = self.db._storage_for(stmt.table.name)
        info = self.optimizer.analyze(stmt)
        evaluator = ExprEvaluator(info, self.db.schema)
        for row_id in row_ids:
            scope = {stmt.table.binding: storage.get_row(row_id)}
            changes = {
                col: evaluator.value(expr, scope)
                for col, expr in stmt.assignments
            }
            storage.update_row(row_id, changes, metrics)
            metrics.pages_written += 1
        return ExecutionResult(rowcount=len(row_ids), metrics=metrics, plan=plan)

    def _execute_delete(self, stmt: ast.Delete) -> ExecutionResult:
        metrics = ExecutionMetrics()
        row_ids, plan = self._locate(stmt.table, stmt.where, metrics)
        storage = self.db._storage_for(stmt.table.name)
        for row_id in row_ids:
            storage.delete_row(row_id, metrics)
            metrics.pages_written += 1
        return ExecutionResult(rowcount=len(row_ids), metrics=metrics, plan=plan)

    def _locate(
        self, table_ref: ast.TableRef, where: Optional[ast.Expr], metrics
    ) -> tuple[list[int], Plan]:
        """Row ids matching a DML WHERE clause, via the planned access path."""
        select = ast.Select(
            items=(ast.SelectItem(ast.Star()),),
            tables=(table_ref,),
            where=where,
        )
        plan = self.optimizer.explain(select, materialized_only=True)
        info = plan.info
        evaluator = ExprEvaluator(info, self.db.schema)
        pipeline = _Pipeline(self, info, plan, evaluator, metrics)
        return [scope_ids[table_ref.binding] for _scope, scope_ids in
                pipeline.run_with_ids()], plan


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


class _Pipeline:
    """Interprets a plan's join pipeline, yielding scopes (binding -> row)."""

    def __init__(self, executor: Executor, info: QueryInfo, plan: Plan,
                 evaluator: ExprEvaluator, metrics: ExecutionMetrics,
                 collect_actuals: bool = False):
        self.executor = executor
        self.db = executor.db
        self.info = info
        self.plan = plan
        self.evaluator = evaluator
        self.metrics = metrics
        # EXPLAIN ANALYZE accumulators, one per join step (None when off).
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

    def run(self) -> Iterator[dict]:
        for scope, _ids in self.run_with_ids():
            yield scope

    def run_with_ids(self) -> Iterator[tuple[dict, dict]]:
        steps = self.plan.steps
        if not steps:
            return
        stream = self._drive(steps[0])
        if self.nodes:
            self.nodes[0].loops = 1
            stream = self._observe(stream, self.nodes[0])
        bound = [steps[0].path.binding]
        for i, step in enumerate(steps[1:], start=1):
            stream = self._join(stream, step, tuple(bound), i)
            if self.nodes:
                stream = self._observe(stream, self.nodes[i])
            bound.append(step.path.binding)
        yield from stream

    def _observe(
        self, stream: Iterator, node: ActualPlanStats
    ) -> Iterator[tuple[dict, dict]]:
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

    # -- scans ---------------------------------------------------------------

    def _drive(self, step: JoinStep) -> Iterator[tuple[dict, dict]]:
        path = step.path
        node = self.nodes[0] if self.nodes else None
        for row, row_id in self._scan(path, {}, node):
            scope = {path.binding: row}
            ids = {path.binding: row_id}
            if self._accept(path.binding, scope, first=True):
                yield scope, ids

    def _join(
        self, stream: Iterator, step: JoinStep, bound: tuple[str, ...],
        step_index: int,
    ) -> Iterator[tuple[dict, dict]]:
        node = self.nodes[step_index] if self.nodes else None
        if step.join_method == "hash":
            yield from self._hash_join(stream, step, bound, node)
            return
        path = step.path
        for scope, ids in stream:
            if node is not None:
                node.loops += 1
            for row, row_id in self._scan(path, scope, node):
                new_scope = dict(scope)
                new_scope[path.binding] = row
                new_ids = dict(ids)
                new_ids[path.binding] = row_id
                if self._accept(path.binding, new_scope, bound=bound):
                    yield new_scope, new_ids

    def _hash_join(
        self, stream: Iterator, step: JoinStep, bound: tuple[str, ...],
        node: Optional[ActualPlanStats] = None,
    ) -> Iterator[tuple[dict, dict]]:
        binding = step.path.binding
        edges = [
            e for e in self.info.join_edges
            if e.touches(binding) and e.other(binding)[0] in bound
        ]
        if node is not None:
            node.loops += 1      # one build-side scan
        table: dict[tuple, list[tuple[dict, int]]] = {}
        for row, row_id in self._scan(step.path, {}, node):
            scope = {binding: row}
            if not self._filters_ok(binding, scope):
                continue
            key = tuple(row.get(e.column_of(binding)) for e in edges)
            table.setdefault(key, []).append((row, row_id))
        for scope, ids in stream:
            key = tuple(
                scope[e.other(binding)[0]].get(e.other(binding)[1]) for e in edges
            )
            for row, row_id in table.get(key, ()):
                new_scope = dict(scope)
                new_scope[binding] = row
                new_ids = dict(ids)
                new_ids[binding] = row_id
                if self._accept(binding, new_scope, bound=bound, skip_filters=True):
                    yield new_scope, new_ids

    def _scan(
        self, path: AccessPath, outer_scope: dict,
        node: Optional[ActualPlanStats] = None,
    ) -> Iterator[tuple[dict, int]]:
        storage = self.db._storage_for(path.table)
        if path.method == "seq":
            yield from self._seq_scan(storage, node)
            return
        yield from self._index_scan(path, storage, outer_scope, node)

    def _seq_scan(
        self, storage: TableStorage, node: Optional[ActualPlanStats] = None
    ) -> Iterator[tuple[dict, int]]:
        params = self.db.params
        pages = params.pages_for(storage.row_count, storage.table.row_width)
        self.metrics.seq_pages += pages
        if node is not None:
            node.pages_read += pages
        for row_id in list(storage.all_row_ids()):
            row = storage.rows.get(row_id)
            if row is None:
                continue
            self.metrics.rows_read += 1
            if node is not None:
                node.rows_scanned += 1
            yield row, row_id

    def _index_scan(
        self, path: AccessPath, storage: TableStorage, outer_scope: dict,
        node: Optional[ActualPlanStats] = None,
    ) -> Iterator[tuple[dict, int]]:
        structure = (
            storage.pk_index
            if path.method == "pk"
            else storage.get_index(path.index.name)
        )
        if structure is None:
            # Index vanished between planning and execution; degrade safely.
            yield from self._seq_scan(storage, node)
            return
        reverse = self._reverse_scan(path)
        if path.skip_scan:
            # Skip scan: the leading column has no predicate.  Execute as
            # a full index scan (bounds would bind the wrong column);
            # residual predicate evaluation keeps results correct.
            prefixes: list[tuple] = [()]
            low = high = None
            low_inc = high_inc = True
        else:
            prefixes = self._prefix_values(path, outer_scope)
            low, high, low_inc, high_inc = self._range_bounds(path)
        # One random page per scan invocation reaches the leaf level: the
        # first probe's descent warms the internal B-tree nodes, so the
        # remaining prefixes (IN-list combinations) descend through cached
        # pages.  Leaf I/O is charged separately below from the entries
        # actually read, mirroring the optimizer's cost model.
        self.metrics.random_pages += 1
        if node is not None:
            node.pages_read += 1
        for prefix in prefixes:
            entries = 0
            # Range bounds bind the key column right after the eq prefix;
            # they only apply when the whole prefix is concrete.
            full_prefix = len(prefix) == len(path.eq_columns)
            use_low = low if full_prefix else None
            use_high = high if full_prefix else None
            scan = structure.scan_prefix(
                prefix, use_low, use_high, low_inc, high_inc, reverse=reverse
            )
            for _key, row_id in scan:
                row = storage.rows.get(row_id)
                if row is None:
                    continue
                entries += 1
                self.metrics.index_entries_read += 1
                if not path.covering:
                    self.metrics.random_pages += 1
                    if node is not None:
                        node.pages_read += 1
                self.metrics.rows_read += 1
                if node is not None:
                    node.rows_scanned += 1
                yield row, row_id
            if path.method == "index":
                entry_width = path.index.entry_width(storage.table)
                leaf_pages = self.db.params.pages_for(entries, entry_width)
                self.metrics.seq_pages += leaf_pages
                if node is not None:
                    node.pages_read += leaf_pages

    def _reverse_scan(self, path: AccessPath) -> bool:
        return bool(
            path.order_satisfied
            and self.info.order_by
            and all(o.desc for o in self.info.order_by)
        )

    def _prefix_values(self, path: AccessPath, outer_scope: dict) -> list[tuple]:
        """Concrete key prefixes for the scan (IN-lists expand)."""
        binding = path.binding
        per_column: list[list] = []
        for col in path.eq_columns:
            values = self._eq_values(binding, col, outer_scope)
            if values is None:
                break
            per_column.append(values)
        combos: list[tuple] = [()]
        for values in per_column:
            combos = [c + (v,) for c in combos for v in values]
            if len(combos) > MAX_SUBRANGES:
                return [()]   # too many subranges: full index scan
        return combos

    def _eq_values(self, binding: str, col: str, outer_scope: dict):
        for pred in self.info.filters.get(binding, []):
            if pred.column.column != col:
                continue
            if pred.op in ("=", "<=>"):
                value = constant_value(pred.expr.right)
                if value is None:
                    value = constant_value(pred.expr.left)
                if value is not None:
                    return [value]
            elif pred.op == "IN":
                values = [constant_value(item) for item in pred.expr.items]
                if all(v is not None for v in values):
                    return values
            elif pred.op == "IS NULL":
                return [None]
        for edge in self.info.join_edges:
            if not edge.touches(binding) or edge.column_of(binding) != col:
                continue
            other_binding, other_col = edge.other(binding)
            if other_binding in outer_scope:
                return [outer_scope[other_binding].get(other_col)]
        return None

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

    # -- predicate application -----------------------------------------------------

    def _filters_ok(self, binding: str, scope: dict) -> bool:
        self.metrics.predicate_evals += len(self.info.filters.get(binding, []))
        for pred in self.info.filters.get(binding, []):
            if not self.evaluator.matches(pred.expr, scope):
                return False
        return True

    def _accept(
        self,
        binding: str,
        scope: dict,
        first: bool = False,
        bound: tuple[str, ...] = (),
        skip_filters: bool = False,
    ) -> bool:
        if not skip_filters and not self._filters_ok(binding, scope):
            return False
        available = set(scope)
        for edge in self.info.join_edges:
            if not edge.touches(binding):
                continue
            other_binding, other_col = edge.other(binding)
            if other_binding not in available:
                continue
            self.metrics.predicate_evals += 1
            left = scope[binding].get(edge.column_of(binding))
            right = scope[other_binding].get(other_col)
            if left is None or right is None or left != right:
                return False
        for touched, expr in self.info.complex_conjuncts:
            if binding not in touched or not touched <= available:
                continue
            self.metrics.predicate_evals += 1
            if not self.evaluator.matches(expr, scope):
                return False
        return True
