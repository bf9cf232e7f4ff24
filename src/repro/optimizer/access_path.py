"""Access path enumeration and costing for a single table binding.

Given a :class:`TableContext` -- the predicates on one table instance
(filters plus any join predicates whose other side is already bound) and
the interesting order -- and the available indexes,
:func:`enumerate_paths` produces every sensible :class:`AccessPath` with
its cost.  The cost formulas follow the classic page-based model:

* sequential scan: heap pages sequentially + per-row CPU,
* index scan: B-tree descent + leaf pages + per-entry CPU + (unless the
  index covers the query) one random page per fetched row for the
  clustered-PK lookup.

Index prefix matching implements MySQL's multi-part range access
(paper Sec. IV-B2): an unbroken chain of equality-class predicates
(=, <=>, IN, IS NULL) on the leading index columns, optionally followed by
one range predicate; later index columns only help via index condition
pushdown and by making the index covering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from ..catalog import Index, Table
from ..engine.pages import CostParams
from ..sqlparser.predicates import AtomicPredicate
from ..stats import TableStats
from .plan import AccessPath
from .query_info import OrderColumn
from .selectivity import (
    MIN_SELECTIVITY,
    atomic_selectivity,
    combined_range_selectivity,
)
from .switches import DEFAULT_SWITCHES, OptimizerSwitches

#: Equality-class operators that keep the index prefix growing.
_EQ_OPS = frozenset({"=", "<=>", "IS NULL"})
#: IN also extends the prefix (multiple subranges) but breaks ordering.
_EQ_CLASS_OPS = _EQ_OPS | {"IN"}
_RANGE_OPS = frozenset({"<", "<=", ">", ">=", "BETWEEN", "LIKE"})


@dataclass(frozen=True)
class ProbeContext:
    """Extra equality predicates from join edges with bound outer tables.

    Maps inner column name -> per-probe selectivity (``1 / ndv``).
    """

    eq_selectivities: dict[str, float]

    @classmethod
    def empty(cls) -> "ProbeContext":
        return cls({})

    def columns(self) -> set[str]:
        return set(self.eq_selectivities)


class TableContext:
    """One binding's costing inputs, precomputed once for all its paths.

    Args:
        table: catalog table.
        stats: table statistics.
        params: cost parameters.
        filters: atomic predicates on this binding (sargable or not).
        referenced: columns of this table the query touches (covering test).
        probe: join-probe equality context, if this binding is a join inner.
        residual_selectivity: combined selectivity of complex (OR-tree)
            conjuncts on this binding, applied after all atomics.
        order_cols: the query's ORDER BY columns *if* they all belong to
            this binding (else pass empty).
        group_cols: likewise for GROUP BY columns.
        limit: LIMIT value for early-exit costing (single-binding queries).
        binding: the binding name every built path carries.
    """

    def __init__(
        self,
        table: Table,
        stats: TableStats,
        params: CostParams,
        filters: Sequence[AtomicPredicate],
        referenced: set[str],
        probe: Optional[ProbeContext] = None,
        residual_selectivity: float = 1.0,
        order_cols: Sequence[OrderColumn] = (),
        group_cols: Sequence[str] = (),
        limit: Optional[int] = None,
        switches: OptimizerSwitches = DEFAULT_SWITCHES,
        binding: str = "",
    ):
        probe = probe or ProbeContext.empty()
        self.binding = binding
        self.switches = switches
        self.table = table
        self.stats = stats
        self.params = params
        self.referenced = referenced
        self.order_cols = list(order_cols)
        self.group_cols = list(group_cols)
        self.limit = limit if (limit is not None and limit > 0) else None
        self.rows = max(1, stats.row_count)

        # Group atomic predicates by column, remembering best (lowest)
        # selectivity per (column, class).  Range predicates on one column
        # combine into one interval (``a <= col < b``).
        self.eq_sel: dict[str, float] = {}
        self.ordered_eq: dict[str, bool] = {}   # False if via IN (order-breaking)
        self.range_sel: dict[str, float] = {}
        self.other_sel: dict[str, float] = {}
        range_preds: dict[str, list[AtomicPredicate]] = {}
        for pred in filters:
            col = pred.column.column
            if pred.op in _EQ_CLASS_OPS:
                sel = atomic_selectivity(pred, stats.column(col))
                if sel < self.eq_sel.get(col, 2.0):
                    self.eq_sel[col] = sel
                    self.ordered_eq[col] = pred.op in _EQ_OPS
            elif pred.op in _RANGE_OPS:
                range_preds.setdefault(col, []).append(pred)
            else:
                sel = atomic_selectivity(pred, stats.column(col))
                self.other_sel[col] = min(sel, self.other_sel.get(col, 1.0))
        for col, preds in range_preds.items():
            self.range_sel[col] = combined_range_selectivity(
                preds, stats.column(col)
            )
        for col, sel in probe.eq_selectivities.items():
            # Join-bound equality: single value per probe, order-preserving.
            if sel < self.eq_sel.get(col, 2.0):
                self.eq_sel[col] = sel
                self.ordered_eq[col] = True

        # Selectivity of *all* predicates combined (atoms + complex).
        total = residual_selectivity
        for sel in self.eq_sel.values():
            total *= sel
        for sel in self.range_sel.values():
            total *= sel
        for sel in self.other_sel.values():
            total *= sel
        self.total_sel = max(MIN_SELECTIVITY, total)
        self.n_predicates = (
            len(self.eq_sel) + len(self.range_sel) + len(self.other_sel)
        )

    def rows_out(self) -> float:
        return self.rows * self.total_sel


def enumerate_paths(
    ctx: TableContext,
    indexes: Sequence[Index] = (),
    base: bool = True,
) -> list[AccessPath]:
    """Enumerate costed access paths for one binding.

    Args:
        ctx: the binding's predicates, statistics and interesting orders
            (:class:`TableContext`).
        indexes: candidate secondary indexes on this table (materialized
            or dataless -- the optimizer treats them alike).
        base: include the sequential scan and the clustered-PK path.  A
            caller that memoizes paths per context passes False to cost
            only indexes it has not seen under *ctx* before.

    Returns:
        The enumerated paths, base paths first, then one per index that
        matches a predicate or provides a useful order, in *indexes*
        order.  Callers pick by min cost (and interesting order).  With
        *base*, always contains at least the sequential scan.
    """
    paths = []
    if base:
        paths.append(_seq_scan(ctx))
        pk_path = _btree_path(ctx, None)
        if pk_path is not None:
            paths.append(pk_path)
    for index in indexes:
        path = _btree_path(ctx, index)
        if path is not None:
            paths.append(path)
    return paths


def best_path(paths: Sequence[AccessPath]) -> AccessPath:
    """The cheapest path (ties broken toward index paths, then covering)."""
    return min(
        paths, key=lambda p: (p.cost, p.method == "seq", not p.covering)
    )


def best_no_index_cost(paths: Sequence[AccessPath]) -> float:
    """Cheapest cost among paths that use no secondary index."""
    eligible = [p for p in paths if p.index is None]
    return min(p.cost for p in eligible)


# ---------------------------------------------------------------------------
# internals
# ---------------------------------------------------------------------------


def _seq_scan(ctx: TableContext) -> AccessPath:
    params = ctx.params
    pages = params.pages_for(ctx.rows, ctx.table.row_width)
    io = pages * params.seq_page_cost
    cpu = ctx.rows * params.cpu_tuple_cost
    cpu += ctx.rows * max(1, ctx.n_predicates) * params.cpu_operator_cost
    return AccessPath(
        binding=ctx.binding, table=ctx.table.name, method="seq",
        rows_examined=float(ctx.rows), rows_out=ctx.rows_out(),
        cost=io + cpu, io_cost=io, covering=True,
    )


def _btree_path(ctx: TableContext, index: Optional[Index]) -> Optional[AccessPath]:
    """Cost a B-tree path: the clustered PK when *index* is None, else a
    secondary index.  Returns None when the index matches no predicate and
    provides no useful order (such a path is strictly worse than choices
    we already enumerate)."""
    table, params = ctx.table, ctx.params
    key_columns = table.primary_key if index is None else index.columns

    eq_cols: list[str] = []
    ordered_prefix = 0          # leading single-value eq columns
    prefix_broken = False
    sel = 1.0
    range_col: Optional[str] = None
    skip_groups = 0             # skip-scan subranges (leading column skipped)
    for pos, col in enumerate(key_columns):
        if not prefix_broken and col in ctx.eq_sel:
            eq_cols.append(col)
            sel *= ctx.eq_sel[col]
            if ctx.ordered_eq[col] and ordered_prefix == len(eq_cols) - 1:
                ordered_prefix += 1
            continue
        if not prefix_broken and col in ctx.range_sel:
            range_col = col
            sel *= ctx.range_sel[col]
        elif (
            pos == 0
            and index is not None
            and ctx.switches.skip_scan
            and ctx.stats.column(col).ndv <= ctx.switches.skip_scan_max_ndv
        ):
            # MySQL 8 skip scan: no predicate on the leading column, but
            # its NDV is small enough to probe one subrange per value.
            skip_groups = max(1, ctx.stats.column(col).ndv)
            continue
        prefix_broken = True
        # Columns after the prefix can still serve ICP; handled below.
    if skip_groups and not eq_cols and range_col is None:
        skip_groups = 0   # nothing to bound within the groups: useless
    sel = max(MIN_SELECTIVITY, min(1.0, sel))

    covering = _is_covering(ctx, index)
    order_sat, group_sat = _order_group_satisfaction(
        ctx, key_columns, ordered_prefix, range_col, eq_cols
    )
    if skip_groups:
        # Subranges break global ordering and grouping guarantees.
        order_sat = group_sat = False
    useful = bool(eq_cols) or range_col is not None or order_sat or group_sat
    if not useful:
        return None

    matched = max(1.0, ctx.rows * sel) if sel < 1.0 else float(ctx.rows)

    # Index condition pushdown: predicates on key columns beyond the
    # matched prefix filter entries before the PK lookup.
    icp_sel = 1.0
    if ctx.switches.index_condition_pushdown:
        prefix_set = set(eq_cols) | ({range_col} if range_col else set())
        for col in key_columns:
            if col in prefix_set:
                continue
            if col in ctx.eq_sel:
                icp_sel *= ctx.eq_sel[col]
            if col in ctx.range_sel:
                icp_sel *= ctx.range_sel[col]

    # Early exit under ORDER BY ... LIMIT: scan only until LIMIT rows pass.
    out_sel = max(MIN_SELECTIVITY, ctx.total_sel / sel)  # post-index filters
    if order_sat and ctx.limit and not ctx.group_cols:
        needed = ctx.limit / out_sel
        matched = min(matched, max(1.0, needed))

    # One random page reaches the leaf level: buffer pools keep internal
    # B-tree nodes cached, so descents cost a single uncached page.  A
    # skip scan descends once per leading-column subrange.
    height_io = params.random_page_cost * max(1, skip_groups)
    lookups = 0.0
    if index is None:
        # Clustered PK: leaf pages are full rows; never a separate lookup.
        leaf_pages = params.pages_for(math.ceil(matched), table.row_width)
        io = height_io + leaf_pages * params.seq_page_cost
        cpu = matched * params.cpu_tuple_cost
        rows_examined = matched
    else:
        entry_width = index.entry_width(table)
        leaf_pages = params.pages_for(math.ceil(matched), entry_width)
        io = height_io + leaf_pages * params.seq_page_cost
        cpu = matched * params.cpu_index_tuple_cost
        rows_examined = matched
        if not covering:
            lookups = matched * icp_sel
            io += lookups * params.random_page_cost
            cpu += lookups * params.cpu_tuple_cost
            rows_examined += lookups
    cpu += matched * max(1, ctx.n_predicates - len(eq_cols)) * params.cpu_operator_cost

    rows_out = max(MIN_SELECTIVITY, ctx.rows * ctx.total_sel)
    if order_sat and ctx.limit and not ctx.group_cols:
        rows_out = min(rows_out, float(ctx.limit))
    return AccessPath(
        binding=ctx.binding, table=table.name,
        method="pk" if index is None else "index",
        index=index,
        eq_columns=tuple(eq_cols),
        range_column=range_col,
        index_selectivity=sel,
        rows_examined=rows_examined,
        rows_out=rows_out,
        cost=io + cpu,
        io_cost=io,
        lookup_rows=lookups,
        covering=covering,
        order_satisfied=order_sat,
        group_satisfied=group_sat,
        skip_scan=skip_groups > 0,
    )


def _is_covering(ctx: TableContext, index: Optional[Index]) -> bool:
    if index is None:
        return True   # clustered PK holds every column
    available = set(index.columns) | set(ctx.table.primary_key)
    return ctx.referenced <= available


def _order_group_satisfaction(
    ctx: TableContext,
    key_columns: tuple[str, ...],
    ordered_prefix: int,
    range_col: Optional[str],
    eq_cols: list[str],
) -> tuple[bool, bool]:
    """Decide whether this key ordering satisfies ORDER BY / GROUP BY.

    Only a prefix of *single-value* equality columns may precede the
    order/group columns (an IN prefix yields multiple subranges and breaks
    global ordering).  A range predicate is only permitted on the first
    order column itself.
    """
    after = list(key_columns[ordered_prefix:])
    order_sat = False
    if ctx.order_cols:
        wanted = [o.column for o in ctx.order_cols]
        directions = {o.desc for o in ctx.order_cols}
        if (
            len(directions) == 1
            and len(after) >= len(wanted)
            and after[: len(wanted)] == wanted
            and len(eq_cols) == ordered_prefix      # no IN in the prefix
            and (range_col is None or range_col == wanted[0])
        ):
            order_sat = True
    group_sat = False
    if ctx.group_cols:
        k = len(ctx.group_cols)
        if (
            len(after) >= k
            and set(after[:k]) == set(ctx.group_cols)
            and len(eq_cols) == ordered_prefix
            and (range_col is None or range_col in ctx.group_cols)
        ):
            group_sat = True
    return order_sat, group_sat
