"""Join order selection and full SELECT planning.

The planner builds left-deep pipelines: a driving table scan followed by
one join step per additional table, each executed as nested-loop probes
into the cheapest inner access path (which is where secondary indexes on
join columns pay off) or as a hash join against a full inner scan.

Join order enumeration uses dynamic programming over binding subsets up to
:data:`DP_LIMIT` tables and a greedy heuristic beyond -- mirroring how
production optimizers bound their search (paper Sec. IV-C: "only a small
number of join orders are even considered by the optimizer").
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from ..catalog import Index, Schema, Table
from ..engine.pages import CostParams
from ..sqlparser import ast
from ..stats import ColumnStats, StatsCatalog
from .access_path import (
    ProbeContext,
    TableContext,
    best_no_index_cost,
    best_path,
    enumerate_paths,
)
from .plan import AccessPath, JoinStep, Plan
from .query_info import QueryInfo
from .selectivity import MIN_SELECTIVITY, expr_selectivity
from .switches import DEFAULT_SWITCHES, OptimizerSwitches

#: Maximum bindings handled by exhaustive DP; larger queries go greedy.
DP_LIMIT = 10


class PlanMemo:
    """One statement's planning state that no index configuration changes.

    Every value is a pure function of the statement, the statistics, the
    cost parameters, the switches and -- for an index path -- the index's
    structural key, never of which other indexes exist.  A planner builds a
    private memo per plan; a what-if evaluator keeps one per statement
    (:class:`~repro.optimizer.what_if.CostEvaluator`), so a configuration
    that adds one index to a statement costs only that index's paths and
    the join search runs over cached numbers.  The evaluator drops its
    memos when :attr:`~repro.engine.Database.plan_version` changes, the
    one staleness rule of every plan cache.

    Attributes:
        paths: ``(binding, probe items, with_order)`` -> that binding's
            :class:`_BindingPaths`; probe items in the probe's own order,
            which its context's float products follow.
        probes: ``(binding, bound)`` -> the :class:`_Probe` of *binding*
            probed from the *bound* set.
        joins: ``(binding, bound)`` -> the join-edge and cross-binding
            selectivities of adding *binding* to *bound*.
        locator: for UPDATE/DELETE, the SELECT that locates its rows.
    """

    __slots__ = ("paths", "probes", "joins", "locator")

    def __init__(self) -> None:
        self.paths: dict[tuple, _BindingPaths] = {}
        self.probes: dict[tuple, _Probe] = {}
        self.joins: dict[tuple, tuple[float, float]] = {}
        self.locator: Optional[QueryInfo] = None


class _Probe(NamedTuple):
    """A probe context with the two keys its paths are cached under."""

    context: ProbeContext
    items: tuple    # (column, selectivity) in probe order: the memo key
    key: tuple      # the items sorted: this plan's path-cache key


class _BindingPaths:
    """One binding's paths under one probe context, costed once per index."""

    __slots__ = ("ctx", "base", "by_index")

    def __init__(self, ctx: TableContext):
        self.ctx = ctx
        self.base: Optional[list[AccessPath]] = None   # seq (+ PK) paths
        self.by_index: dict[tuple, Optional[AccessPath]] = {}  # None: rejected

    def paths(self, indexes: Sequence[Index]) -> list[AccessPath]:
        """Base paths plus each useful index's path, in *indexes* order;
        costs (through :func:`enumerate_paths`) only what is not memoized."""
        by_index = self.by_index
        missing = [idx for idx in indexes if idx.key not in by_index]
        if missing or self.base is None:
            fresh = enumerate_paths(self.ctx, missing, base=self.base is None)
            if self.base is None:
                self.base = [p for p in fresh if p.index is None]
            costed = {p.index.key: p for p in fresh if p.index is not None}
            for idx in missing:
                by_index[idx.key] = costed.get(idx.key)
        paths = list(self.base)
        for idx in indexes:
            path = by_index[idx.key]
            if path is not None:
                paths.append(path)
        return paths


_NO_PROBE = _Probe(ProbeContext.empty(), (), ())


class SelectPlanner:
    """Plans one SELECT statement against a schema + statistics snapshot.

    *indexes* are the secondary indexes the plan may use, built or
    hypothetical alike.  Pass *memo* to share configuration-independent
    planning state across plans of the same statement under the same
    statistics, parameters and switches (see :class:`PlanMemo`).
    """

    def __init__(
        self,
        schema: Schema,
        stats: StatsCatalog,
        params: CostParams,
        info: QueryInfo,
        indexes: Sequence[Index] = (),
        switches: OptimizerSwitches = DEFAULT_SWITCHES,
        memo: Optional[PlanMemo] = None,
    ):
        self.schema = schema
        self.stats = stats
        self.params = params
        self.switches = switches
        self.info = info
        self.memo = memo if memo is not None else PlanMemo()
        # Dedup on the key: a wrongly dropped duplicate is a lost plan choice.
        by_table: dict[str, dict[tuple, Index]] = {}
        for index in indexes:
            by_table.setdefault(index.table, {}).setdefault(index.key, index)
        self._indexes = {t: list(found.values()) for t, found in by_table.items()}
        # This plan's view of the memo, keyed by sorted probe items: the
        # first probe order seen for a column set costs it in this plan.
        self._path_cache: dict[tuple, list[AccessPath]] = {}
        self._best_cache: dict[tuple, AccessPath] = {}
        self._hash_build: dict[str, float] = {}

    # -- public entry ---------------------------------------------------------

    def plan(self) -> Plan:
        bindings = list(self.info.bindings)
        if len(bindings) == 1:
            return self._single_table_plan(bindings[0])
        return self._join_plan(bindings)

    # -- helpers --------------------------------------------------------------

    def _table(self, binding: str) -> Table:
        return self.schema.table(self.info.bindings[binding])

    def _table_stats(self, binding: str):
        return self.stats.table(self.info.bindings[binding])

    def _column_stats(self, ref: ast.ColumnRef) -> ColumnStats:
        """Stats lookup for selectivity of complex conjuncts."""
        if ref.table is not None and ref.table in self.info.bindings:
            return self._table_stats(ref.table).column(ref.column)
        for binding, table_name in self.info.bindings.items():
            if self.schema.table(table_name).has_column(ref.column):
                return self._table_stats(binding).column(ref.column)
        return ColumnStats()

    def _residual_selectivity(self, binding: str) -> float:
        """Selectivity of complex conjuncts local to one binding."""
        sel = 1.0
        for touched, expr in self.info.complex_conjuncts:
            if touched == frozenset({binding}):
                sel *= expr_selectivity(expr, self._column_stats)
        return sel

    def _cross_binding_selectivity(self, present: frozenset[str], added: str) -> float:
        """Selectivity of multi-binding complex conjuncts that become fully
        bound when *added* joins the *present* set."""
        now = present | {added}
        sel = 1.0
        for touched, expr in self.info.complex_conjuncts:
            if len(touched) > 1 and touched <= now and not touched <= present:
                sel *= expr_selectivity(expr, self._column_stats)
        return sel

    def _paths(
        self,
        binding: str,
        probe: _Probe = _NO_PROBE,
        with_order: bool = False,
    ) -> list[AccessPath]:
        """Costed paths of *binding* under *probe* and this plan's indexes."""
        key = (binding, probe.key, with_order)
        paths = self._path_cache.get(key)
        if paths is not None:
            return paths
        memo_key = (binding, probe.items, with_order)
        entry = self.memo.paths.get(memo_key)
        if entry is None:
            entry = self.memo.paths[memo_key] = _BindingPaths(
                self._context(binding, probe.context, with_order)
            )
        paths = entry.paths(self._indexes.get(self.info.bindings[binding], ()))
        self._path_cache[key] = paths
        return paths

    def _best(self, binding: str, probe: _Probe = _NO_PROBE) -> AccessPath:
        """The cheapest path of *binding* under *probe* (no order wanted)."""
        key = (binding, probe.key)
        best = self._best_cache.get(key)
        if best is None:
            best = self._best_cache[key] = best_path(self._paths(binding, probe))
        return best

    def _context(
        self, binding: str, probe: ProbeContext, with_order: bool
    ) -> TableContext:
        order_cols: tuple = ()
        group_cols: tuple[str, ...] = ()
        limit = None
        if with_order:
            if self.info.order_by and all(
                o.binding == binding for o in self.info.order_by
            ):
                order_cols = tuple(self.info.order_by)
            if self.info.group_by and all(
                b == binding for b, _ in self.info.group_by
            ):
                group_cols = tuple(c for _, c in self.info.group_by)
            if len(self.info.bindings) == 1:
                limit = self.info.limit
        return TableContext(
            self._table(binding),
            self._table_stats(binding),
            self.params,
            self.info.filters.get(binding, []),
            set(self.info.referenced.get(binding, set())),
            probe=probe,
            residual_selectivity=self._residual_selectivity(binding),
            order_cols=order_cols,
            group_cols=group_cols,
            limit=limit,
            switches=self.switches,
            binding=binding,
        )

    def _probe(self, binding: str, bound: frozenset[str]) -> _Probe:
        """Probe context for *binding* when *bound* bindings are available:
        each join column's equality selectivity, ``1 / ndv``."""
        key = (binding, bound)
        probe = self.memo.probes.get(key)
        if probe is None:
            stats = self._table_stats(binding)
            edges = self.info.joins[binding]
            merged: dict[str, float] = {}
            # Query binding order, not set order: the items' order feeds the
            # context's float products, so it must not depend on how the
            # set was built (or on the string hash seed).
            for other in self.info.bindings:
                if other not in bound:
                    continue
                for column, edge_other, _other_column in edges:
                    if edge_other == other and column not in merged:
                        merged[column] = 1.0 / max(1, stats.column(column).ndv)
            items = tuple(merged.items())
            probe = self.memo.probes[key] = _Probe(
                ProbeContext(merged), items, tuple(sorted(items))
            )
        return probe

    def _edge_result_selectivity(self, binding: str, bound: frozenset[str]) -> float:
        """Cardinality selectivity of all join edges binding<->bound."""
        sel = 1.0
        my_stats = self._table_stats(binding)
        for column, other, other_column in self.info.joins[binding]:
            if other in bound:
                my_ndv = my_stats.column(column).ndv
                other_ndv = self._table_stats(other).column(other_column).ndv
                sel *= 1.0 / max(1, my_ndv, other_ndv)
        return sel

    def _filtered_rows(self, binding: str) -> float:
        return max(MIN_SELECTIVITY, self._paths(binding)[0].rows_out)

    # -- single table ---------------------------------------------------------

    def _single_table_plan(self, binding: str) -> Plan:
        paths = self._paths(binding, with_order=True)
        chosen = self._pick_with_order(paths)
        step = JoinStep(
            path=chosen,
            join_method="drive",
            executions=1.0,
            step_cost=chosen.cost,
            no_index_cost=best_no_index_cost(paths),
            rows_after=chosen.rows_out,
        )
        return self._finalize([step], chosen.rows_out)

    def _pick_with_order(self, paths: list[AccessPath]) -> AccessPath:
        """Pick min total cost accounting for avoided sorts."""
        info = self.info
        need_group = bool(info.group_by)
        need_order = bool(info.order_by)

        def effective(path: AccessPath) -> float:
            cost = path.cost
            rows = path.rows_out
            if need_group and not path.group_satisfied:
                cost += _sort_cost(self.params, rows)
            if need_order and not path.order_satisfied and not need_group:
                cost += _sort_cost(self.params, rows)
            return cost

        return min(paths, key=lambda p: (effective(p), p.method == "seq"))

    # -- joins ------------------------------------------------------------------

    def _join_plan(self, bindings: list[str]) -> Plan:
        if self.info.straight_join:
            order = bindings
            steps, rows = self._build_pipeline(order)
            return self._finalize(steps, rows)
        if len(bindings) <= DP_LIMIT:
            order = self._dp_order(bindings)
        else:
            order = self._greedy_order(bindings)
        steps, rows = self._build_pipeline(order)
        plan = self._finalize(steps, rows)

        # Interesting-order alternative: drive from the binding that can
        # satisfy ORDER BY and skip the final sort.
        if self.info.order_by:
            order_bindings = {o.binding for o in self.info.order_by}
            if len(order_bindings) == 1:
                driver = next(iter(order_bindings))
                alt_order = [driver] + self._greedy_tail(driver, bindings)
                alt_steps, alt_rows = self._build_pipeline(
                    alt_order, driver_with_order=True
                )
                alt_plan = self._finalize(alt_steps, alt_rows)
                if alt_plan.total_cost < plan.total_cost:
                    return alt_plan
        return plan

    def _dp_order(self, bindings: list[str]) -> list[str]:
        """Selinger-style DP over subsets; returns the best join order."""
        best: dict[frozenset, tuple[float, float, list[str]]] = {}
        for b in bindings:
            chosen = self._best(b)
            best[frozenset([b])] = (chosen.cost, max(1.0, chosen.rows_out), [b])
        all_set = frozenset(bindings)
        for size in range(2, len(bindings) + 1):
            for subset, (cost, rows, order) in list(best.items()):
                if len(subset) != size - 1:
                    continue
                for b in bindings:
                    if b in subset:
                        continue
                    # Prefer connected expansions; allow cross products only
                    # when nothing is connected (handled by fallback below).
                    step_cost, step_rows = self._join_step_estimate(b, subset, rows)
                    new_set = subset | {b}
                    total = cost + step_cost
                    entry = best.get(new_set)
                    if entry is None or total < entry[0]:
                        best[new_set] = (total, step_rows, order + [b])
        return best[all_set][2]

    def _greedy_order(self, bindings: list[str]) -> list[str]:
        """Greedy order: smallest filtered driver, then cheapest expansion."""
        driver = min(bindings, key=self._filtered_rows)
        return [driver] + self._greedy_tail(driver, bindings)

    def _greedy_tail(self, driver: str, bindings: list[str]) -> list[str]:
        remaining = [b for b in bindings if b != driver]
        order: list[str] = []
        current = frozenset([driver])
        rows = self._filtered_rows(driver)
        while remaining:
            connected = [
                b for b in remaining if self.info.joined_bindings(b) & current
            ]
            pool = connected or remaining
            scored = []
            for b in pool:
                step_cost, step_rows = self._join_step_estimate(b, current, rows)
                scored.append((step_cost, step_rows, b))
            scored.sort(key=lambda t: (t[0], t[2]))
            _, rows, chosen = scored[0]
            order.append(chosen)
            remaining.remove(chosen)
            current = current | {chosen}
        return order

    def _join_step_estimate(
        self, binding: str, bound: frozenset[str], outer_rows: float
    ) -> tuple[float, float]:
        """(cost, resulting rows) of joining *binding* to the bound set."""
        inner = self._best(binding, self._probe(binding, bound))
        nlj_cost = outer_rows * inner.cost
        hash_cost = self._hash_join_cost(binding, outer_rows)
        cost = min(nlj_cost, hash_cost)
        rows = self._result_rows(binding, bound, outer_rows)
        return cost, rows

    def _result_rows(
        self, binding: str, bound: frozenset[str], outer_rows: float
    ) -> float:
        filtered = self._filtered_rows(binding)
        key = (binding, bound)
        sels = self.memo.joins.get(key)
        if sels is None:
            sels = self.memo.joins[key] = (
                self._edge_result_selectivity(binding, bound),
                self._cross_binding_selectivity(bound, binding),
            )
        join_sel, cross_sel = sels
        rows = outer_rows * filtered * join_sel * cross_sel
        return max(MIN_SELECTIVITY, rows)

    def _hash_join_cost(self, binding: str, outer_rows: float) -> float:
        """Build a hash table from the (filtered) inner, probe with outer."""
        build = self._hash_build.get(binding)
        if build is None:
            if not self.switches.hash_join:
                build = math.inf   # switched off (MySQL < 8.0.18 posture)
            elif not self.info.joins[binding]:
                build = math.inf   # no equi-join key: cross product via NLJ only
            else:
                scan = self._best(binding)
                build = scan.cost + scan.rows_out * self.params.cpu_tuple_cost
            self._hash_build[binding] = build
        probe = outer_rows * self.params.cpu_tuple_cost * 2
        return build + probe

    def _build_pipeline(
        self, order: list[str], driver_with_order: bool = False
    ) -> tuple[list[JoinStep], float]:
        steps: list[JoinStep] = []
        driver = order[0]
        paths = self._paths(driver, with_order=True)
        if driver_with_order:
            ordered = [p for p in paths if p.order_satisfied]
            chosen = best_path(ordered) if ordered else self._pick_with_order(paths)
        else:
            chosen = self._pick_with_order(paths)
        rows = max(MIN_SELECTIVITY, chosen.rows_out)
        steps.append(
            JoinStep(
                path=chosen, join_method="drive", executions=1.0,
                step_cost=chosen.cost, no_index_cost=best_no_index_cost(paths),
                rows_after=rows,
            )
        )
        current = frozenset([driver])
        for binding in order[1:]:
            probe = self._probe(binding, current)
            paths = self._paths(binding, probe)
            inner = self._best(binding, probe)
            nlj_cost = rows * inner.cost
            hash_cost = self._hash_join_cost(binding, rows)
            next_rows = self._result_rows(binding, current, rows)
            if nlj_cost <= hash_cost:
                no_index = rows * best_no_index_cost(paths)
                steps.append(
                    JoinStep(
                        path=inner, join_method="nlj", executions=rows,
                        step_cost=nlj_cost, no_index_cost=no_index,
                        rows_after=next_rows,
                    )
                )
            else:
                scan_paths = self._paths(binding)
                scan = self._best(binding)
                steps.append(
                    JoinStep(
                        path=scan, join_method="hash", executions=1.0,
                        step_cost=hash_cost,
                        no_index_cost=max(hash_cost, best_no_index_cost(scan_paths)),
                        rows_after=next_rows,
                    )
                )
            rows = next_rows
            current = current | {binding}
        return steps, rows

    # -- finalization ------------------------------------------------------------

    def _finalize(self, steps: list[JoinStep], rows: float) -> Plan:
        info = self.info
        total = sum(step.step_cost for step in steps)
        sort_rows = 0.0
        rows_out = rows

        order_satisfied = steps[0].path.order_satisfied and all(
            s.join_method != "hash" for s in steps[1:]
        )
        group_satisfied = steps[0].path.group_satisfied and len(steps) == 1

        if info.group_by:
            groups = self._group_cardinality(rows)
            if not group_satisfied:
                sort_rows += rows
                total += _sort_cost(self.params, rows)
            total += rows * self.params.cpu_operator_cost   # aggregation
            rows_out = groups
            if isinstance(info.stmt, ast.Select) and info.stmt.having is not None:
                rows_out = max(1.0, rows_out * 0.25)
        if info.order_by and not order_satisfied:
            # GROUP BY output is already sorted when sort-based grouping ran.
            if not (info.group_by and not group_satisfied):
                sort_rows += rows_out
                total += _sort_cost(self.params, rows_out)
        if info.limit and info.limit > 0:
            rows_out = min(rows_out, float(info.limit))
        total += rows_out * self.params.cpu_tuple_cost   # emit to client
        return Plan(
            info=info, steps=steps, sort_rows=sort_rows,
            rows_out=rows_out, total_cost=total,
        )

    def _group_cardinality(self, rows: float) -> float:
        by_binding: dict[str, list[str]] = {}
        for binding, column in self.info.group_by:
            by_binding.setdefault(binding, []).append(column)
        groups = 1.0
        for binding, cols in by_binding.items():
            groups *= self._table_stats(binding).distinct_values(tuple(cols))
        return max(1.0, min(groups, rows))


def _sort_cost(params: CostParams, rows: float) -> float:
    if rows <= 1:
        return 0.0
    return params.sort_unit_cost * rows * math.log2(rows)
