"""Candidate index generation (paper Sec. IV, Algorithms 2-7).

Candidate generation transforms *structural* query metadata into partial
orders of index columns -- no optimizer enumeration over configurations.
For every query the three generators run (selection, GROUP BY, ORDER BY,
Algorithms 4/6/7), exploring join-order alternatives through the
``JoinedTablesPowerset`` bounded by the join parameter ``j``
(Algorithm 3).  The per-workload partial orders are then merged to a
fixpoint (Sec. III-E) and linearized into concrete index candidates
(``GenerateCandidateIndexPerPO``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..catalog import Index, Schema
from ..obs import trace
from ..optimizer.query_info import QueryInfo
from ..optimizer.switches import DEFAULT_SWITCHES, OptimizerSwitches
from ..stats import StatsCatalog
from .config import AimConfig
from .covering import MODE_COVERING, MODE_NON_COVERING, covering_extension
from .ipp import PredicateGroup, RangeColumnChooser, factorize_index_predicates
from .merge import merge_by_table
from .partial_order import PartialOrder


@dataclass
class CandidateSet:
    """Generated candidates plus provenance.

    Attributes:
        orders: the final (merged) partial orders.
        indexes: one concrete index per partial order.
        attribution: per query key, the indexes generated for / compatible
            with that query (feeds Eq. 7's per-query gain split).
    """

    orders: list[PartialOrder] = field(default_factory=list)
    indexes: list[Index] = field(default_factory=list)
    attribution: dict[str, list[Index]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.indexes)


def joined_tables_powerset(
    info: QueryInfo, binding: str, join_parameter: int
) -> list[frozenset[str]]:
    """Algorithm 3: power set of bindings sharing a join predicate with
    *binding*; degraded to ``{∅}`` when the table joins with more than
    ``j`` others (the exponential guard)."""
    joined = sorted(info.joined_bindings(binding))
    if len(joined) > join_parameter:
        joined = []
    out: list[frozenset[str]] = []
    for size in range(len(joined) + 1):
        for combo in itertools.combinations(joined, size):
            out.append(frozenset(combo))
    return out


class CandidateGenerator:
    """Generates candidate indexes for queries against one schema."""

    def __init__(
        self,
        schema: Schema,
        stats: StatsCatalog,
        config: AimConfig = AimConfig(),
        switches: OptimizerSwitches = DEFAULT_SWITCHES,
        range_chooser: Optional[RangeColumnChooser] = None,
    ):
        self.schema = schema
        self.stats = stats
        self.config = config
        #: Optimizer switch awareness (Sec. VIII-a): with skip scan enabled,
        #: candidates another candidate serves via skip scan are pruned.
        self.switches = switches
        self.range_chooser = range_chooser or RangeColumnChooser(
            stats_lookup=lambda table, col: stats.table(table).column(col)
        )

    # -- per-query generation (Algorithm 2 line 4) ---------------------------

    def generate_for_query(
        self, info: QueryInfo, mode: str = MODE_NON_COVERING
    ) -> set[PartialOrder]:
        """Union of the selection / GROUP BY / ORDER BY generators."""
        orders: set[PartialOrder] = set()
        orders |= self.for_selection(info, mode)
        orders |= self.for_group_by(info, mode)
        orders |= self.for_order_by(info, mode)
        return {po for po in orders if not self._useless(po)}

    def for_selection(self, info: QueryInfo, mode: str) -> set[PartialOrder]:
        """Algorithm 4."""
        out: set[PartialOrder] = set()
        for binding, table in info.bindings.items():
            for subset in joined_tables_powerset(
                info, binding, self.config.join_parameter
            ):
                join_cols = self._join_columns(info, binding, subset)
                groups = factorize_index_predicates(info, binding, join_cols)
                for group in groups:
                    po = self._index_predicates_order(info, binding, table, group)
                    if po is None:
                        continue
                    if mode == MODE_COVERING:
                        po = po.append(
                            covering_extension(info, binding, po.columns)
                        )
                    out.add(po)
        return out

    def for_group_by(self, info: QueryInfo, mode: str) -> set[PartialOrder]:
        """Algorithm 6."""
        out: set[PartialOrder] = set()
        by_binding: dict[str, list[str]] = {}
        for binding, column in info.group_by:
            by_binding.setdefault(binding, []).append(column)
        for binding, group_cols in by_binding.items():
            table = info.bindings[binding]
            if mode == MODE_NON_COVERING:
                out.add(PartialOrder.build(table, [group_cols]))
                continue
            for subset in joined_tables_powerset(
                info, binding, self.config.join_parameter
            ):
                join_cols = self._join_columns(info, binding, subset)
                groups = factorize_index_predicates(info, binding, join_cols)
                if not groups:
                    groups = [PredicateGroup(binding)]
                for group in groups:
                    ipp = sorted(group.ipp_columns)
                    po = PartialOrder.build(table, [ipp])
                    po = po.append(
                        [c for c in group_cols if c not in po.columns]
                    )
                    po = po.append(covering_extension(info, binding, po.columns))
                    if not po.is_empty:
                        out.add(po)
        return out

    def for_order_by(self, info: QueryInfo, mode: str) -> set[PartialOrder]:
        """Algorithm 7."""
        out: set[PartialOrder] = set()
        if not info.order_by:
            return out
        # The useful order columns are the maximal ORDER BY prefix living
        # on a single binding (an index on one table can only provide
        # that prefix).
        first_binding = info.order_by[0].binding
        sequence = []
        for item in info.order_by:
            if item.binding != first_binding:
                break
            sequence.append(item.column)
        sequence = list(dict.fromkeys(sequence))
        binding = first_binding
        table = info.bindings[binding]
        if mode == MODE_NON_COVERING:
            out.add(PartialOrder.chain(table, sequence))
            return out
        for subset in joined_tables_powerset(
            info, binding, self.config.join_parameter
        ):
            join_cols = self._join_columns(info, binding, subset)
            groups = factorize_index_predicates(info, binding, join_cols)
            if not groups:
                groups = [PredicateGroup(binding)]
            for group in groups:
                po = PartialOrder.build(table, [sorted(group.ipp_columns)])
                po = po.append_chain(sequence)
                po = po.append(covering_extension(info, binding, po.columns))
                if not po.is_empty:
                    out.add(po)
        return out

    # -- workload-level generation (Algorithm 2) ------------------------------

    def generate(
        self,
        queries: Iterable[tuple[str, QueryInfo, str]],
    ) -> CandidateSet:
        """Generate, merge and linearize candidates for a workload.

        Args:
            queries: (query_key, analyzed info, mode) triples; *mode* is
                the ``TryCoveringIndex`` outcome per query.

        Returns:
            The merged candidate set with per-query attribution.
        """
        per_query: dict[str, set[PartialOrder]] = {}
        all_orders: set[PartialOrder] = set()
        with trace("advisor.partial_order_generation") as span:
            for key, info, mode in queries:
                orders = self.generate_for_query(info, mode)
                per_query.setdefault(key, set()).update(orders)
                all_orders |= orders
            span.set(queries=len(per_query), orders=len(all_orders))

        with trace("advisor.merge") as span:
            if self.config.merge_orders:
                merged = merge_by_table(all_orders)
            else:
                merged = set(all_orders)
            span.set(orders_in=len(all_orders), orders_out=len(merged))

        result = CandidateSet()
        seen: set[tuple] = set()
        for po in sorted(merged, key=str):
            index = self.index_for_order(po)   # truncates to max width
            if index is None or index.key in seen:
                continue   # width truncation can collapse two orders
            seen.add(index.key)
            result.orders.append(po)
            result.indexes.append(index)

        if self.switches.skip_scan:
            self._prune_skip_servable(result)

        # A query's orders can only be served by indexes on their tables.
        by_table: dict[str, list[Index]] = {}
        for index in result.indexes:
            by_table.setdefault(index.table, []).append(index)
        for key, orders in per_query.items():
            result.attribution[key] = [
                index
                for table in sorted({po.table for po in orders})
                for index in by_table.get(table, ())
                if self._serves(orders, index)
            ]
        return result

    def _prune_skip_servable(self, result: CandidateSet) -> None:
        """Sec. VIII-a switch awareness: with skip scan ON, an index whose
        key equals another candidate's key minus a low-NDV leading column
        is redundant -- the wider candidate serves its queries via skip
        scan.  Pruning it shrinks the candidate set."""
        max_ndv = self.switches.skip_scan_max_ndv
        by_key = {(idx.table, idx.columns): idx for idx in result.indexes}
        redundant: set[tuple] = set()
        for index in result.indexes:
            for (table, columns), wider in by_key.items():
                if table != index.table or len(columns) != index.width + 1:
                    continue
                if columns[1:] != index.columns:
                    continue
                leading_ndv = self.stats.table(table).column(columns[0]).ndv
                if leading_ndv <= max_ndv:
                    redundant.add(index.key)
                    break
        if not redundant:
            return
        keep = [i for i, idx in enumerate(result.indexes) if idx.key not in redundant]
        result.orders = [result.orders[i] for i in keep]
        result.indexes = [result.indexes[i] for i in keep]

    def index_for_order(self, po: PartialOrder) -> Optional[Index]:
        """``GenerateCandidateIndexPerPO``: pick one linear extension.

        Within a partition, columns are ordered by descending NDV (most
        selective first) -- the paper leaves the choice arbitrary; this
        choice maximizes prefix usefulness deterministically.
        """
        stats = self.stats.table(po.table)
        total = self._prune_to_width(po)
        if total is None:
            return None
        columns = total.linearize(
            key=lambda col: (-stats.column(col).ndv, col)
        )
        table = self.schema.table(po.table)
        pk = table.primary_key
        if columns == pk[: len(columns)]:
            return None   # a PK prefix: the clustered index already serves it
        return Index(po.table, columns, dataless=True)

    # -- helpers ---------------------------------------------------------------

    def _join_columns(
        self, info: QueryInfo, binding: str, subset: frozenset[str]
    ) -> set[str]:
        return {
            column for column, other, _other_column in info.joins[binding]
            if other in subset
        }

    def _index_predicates_order(
        self,
        info: QueryInfo,
        binding: str,
        table: str,
        group: PredicateGroup,
    ) -> Optional[PartialOrder]:
        """Algorithm 5: ``<C_IPP, {last_col}>`` per predicate group."""
        last_col = self.range_chooser.choose(info, group, table)
        ipp_columns = self._relax_ipp(table, group.ipp_columns)
        partitions: list[list[str]] = []
        if ipp_columns:
            partitions.append(sorted(ipp_columns))
        if last_col is not None and last_col not in ipp_columns:
            partitions.append([last_col])
        if not partitions:
            return None
        return PartialOrder.build(table, partitions)

    def _relax_ipp(self, table: str, ipp_columns: set[str]) -> set[str]:
        """Sec. V-A IPP relaxation: keep the most selective IPP columns
        until the estimated matched rows reach the configured threshold;
        additional columns add width without additive selectivity."""
        threshold = self.config.ipp_relaxation_rows
        if threshold is None or len(ipp_columns) <= 1:
            return set(ipp_columns)
        stats = self.stats.table(table)
        rows = float(max(1, stats.row_count))
        # Most selective first (highest NDV); ties broken by name.
        ordered = sorted(
            ipp_columns, key=lambda c: (-stats.column(c).ndv, c)
        )
        kept: set[str] = set()
        matched = rows
        for column in ordered:
            if matched <= threshold and kept:
                break
            kept.add(column)
            matched /= max(1, stats.column(column).ndv)
        return kept

    def _prune_to_width(self, po: PartialOrder) -> Optional[PartialOrder]:
        cap = self.config.max_index_width
        if cap is None or po.width <= cap:
            return po
        # Truncate trailing partitions to fit the cap (keeps the prefix).
        kept: list[frozenset[str]] = []
        used = 0
        for part in po.partitions:
            if used + len(part) <= cap:
                kept.append(part)
                used += len(part)
            else:
                remaining = cap - used
                if remaining > 0:
                    kept.append(frozenset(sorted(part)[:remaining]))
                break
        if not kept:
            return None
        return PartialOrder(po.table, tuple(kept))

    def _useless(self, po: PartialOrder) -> bool:
        if po.is_empty:
            return True
        table = self.schema.table(po.table)
        # Single-column candidate equal to the PK's leading column.
        if po.width == 1 and next(iter(po.columns)) == table.primary_key[0]:
            return True
        return False

    def _serves(self, query_orders: set[PartialOrder], index: Index) -> bool:
        """True if the concrete *index* serves any of the query's partial
        orders: the index's leading columns must be a linear extension of
        the source order (its columns as an order-respecting prefix).
        With skip scan enabled, one low-NDV leading column may precede
        the prefix."""
        for source in query_orders:
            if source.table != index.table or source.width > index.width:
                continue
            prefix = index.columns[: source.width]
            if set(prefix) == set(source.columns) and source.satisfied_by(prefix):
                return True
            if (
                self.switches.skip_scan
                and source.width + 1 <= index.width
                and index.columns[0] not in source.columns
            ):
                leading_ndv = self.stats.table(index.table).column(
                    index.columns[0]
                ).ndv
                skipped = index.columns[1 : source.width + 1]
                if (
                    leading_ndv <= self.switches.skip_scan_max_ndv
                    and set(skipped) == set(source.columns)
                    and source.satisfied_by(skipped)
                ):
                    return True
        return False

