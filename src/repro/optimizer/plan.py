"""Physical plan representation returned by the optimizer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..catalog import Index
from .query_info import QueryInfo


@dataclass(frozen=True)
class AccessPath:
    """One table access choice, costed for a given probe context.

    ``cost`` and ``rows_out`` are *per execution*: for a driving table that
    is one full scan, for a join inner it is one probe.

    Attributes:
        binding: table binding this path scans.
        table: real table name.
        method: ``seq`` (full scan), ``pk`` (clustered PK range) or
            ``index`` (secondary index scan).
        index: the secondary index used (``index`` method only).
        eq_columns: index columns matched by equality-class predicates.
        range_column: index column bounded by a range predicate, if any.
        index_selectivity: fraction of the table matched by the index
            condition.
        rows_examined: rows touched per execution (index entries + heap).
        rows_out: rows produced per execution after all filters.
        cost: total cost per execution in cost units.
        io_cost: page-I/O component of ``cost`` (drives Eq. 7's benefit
            attribution share).
        covering: no base-table lookups needed.
        order_satisfied: produces rows in the query's ORDER BY order.
        group_satisfied: produces rows clustered by the GROUP BY columns.
    """

    binding: str
    table: str
    method: str
    index: Optional[Index] = None
    eq_columns: tuple[str, ...] = ()
    range_column: Optional[str] = None
    index_selectivity: float = 1.0
    rows_examined: float = 0.0
    rows_out: float = 0.0
    cost: float = 0.0
    io_cost: float = 0.0
    lookup_rows: float = 0.0
    covering: bool = False
    order_satisfied: bool = False
    group_satisfied: bool = False
    skip_scan: bool = False

    def describe(self) -> str:
        """Human-readable one-liner (EXPLAIN-style)."""
        if self.method == "seq":
            return f"SeqScan({self.binding})"
        if self.method == "pk":
            return f"PkRange({self.binding} eq={list(self.eq_columns)})"
        cov = " covering" if self.covering else ""
        return (
            f"IndexScan({self.binding} via {self.index.name}"
            f" eq={list(self.eq_columns)} range={self.range_column}{cov})"
        )


@dataclass(frozen=True)
class JoinStep:
    """One step of a left-deep join pipeline.

    The first step is the driving table scan (``join_method == 'drive'``);
    subsequent steps join one more table via nested-loop index probes
    (``nlj``) or a hash join (``hash``).
    """

    path: AccessPath
    join_method: str            # 'drive' | 'nlj' | 'hash'
    executions: float           # how many times the path runs (probes)
    step_cost: float            # total cost of this step
    no_index_cost: float        # cost had no secondary index been available
    rows_after: float           # cumulative row estimate after this step


@dataclass
class Plan:
    """A complete physical plan with cost decomposition."""

    info: QueryInfo
    steps: list[JoinStep] = field(default_factory=list)
    sort_rows: float = 0.0          # rows through an explicit sort
    rows_out: float = 0.0           # estimated rows returned
    total_cost: float = 0.0
    maintenance_cost: float = 0.0   # DML index maintenance component

    @property
    def used_index_keys(self) -> set[tuple]:
        """Keys (:attr:`Index.key`) of the secondary indexes the plan reads."""
        return {
            step.path.index.key
            for step in self.steps
            if step.path.index is not None
        }

    @property
    def rows_examined(self) -> float:
        """Total rows touched across all steps (monitor's ``rows_read``)."""
        return sum(step.path.rows_examined * step.executions for step in self.steps)

    def io_savings(self) -> dict[tuple, float]:
        """Per-index cost reduction vs. the best index-free path, by key.

        This is the quantity used to split Eq. 7's gain ``U+`` across the
        indexes a query uses (share ``s_{i,q}`` proportional to the
        reduction in I/O due to each index).
        """
        savings: dict[tuple, float] = {}
        for step in self.steps:
            index = step.path.index
            if index is None:
                continue
            saved = max(0.0, step.no_index_cost - step.step_cost)
            savings[index.key] = savings.get(index.key, 0.0) + saved
        return savings

    def describe(self) -> str:
        """Multi-line EXPLAIN-style rendering."""
        lines = []
        for step in self.steps:
            prefix = {"drive": "->", "nlj": " ->> NLJ", "hash": " ->> HASH"}[
                step.join_method
            ]
            lines.append(
                f"{prefix} {step.path.describe()}"
                f" x{step.executions:.0f} cost={step.step_cost:.2f}"
            )
        if self.sort_rows > 0:
            lines.append(f" -> Sort({self.sort_rows:.0f} rows)")
        lines.append(f"total={self.total_cost:.2f} rows={self.rows_out:.0f}")
        return "\n".join(lines)
