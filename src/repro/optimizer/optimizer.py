"""The optimizer facade.

:class:`Optimizer` is the single entry point every advisor and the
executor use: ``explain(statement)`` -> :class:`Plan`.  It plans SELECTs
through the join-order planner and DML through the SELECT planner (to
locate affected rows) plus the maintenance cost model.

The facade counts optimizer invocations (``calls``) -- the metric that
dominates advisor runtime in practice (Papadomanolakis et al.: index
selection tools spend ~90% of their time in the optimizer; paper
Sec. VIII-a) and that Fig 4b/4d's runtime comparison hinges on.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from ..catalog import Index
from ..engine import Database
from ..obs import BoundMetric
from ..sqlparser import ast, parse
from .cost_model import affected_rows, dml_base_cost, maintenance_cost
from .join_order import PlanMemo, SelectPlanner
from .plan import JoinStep, Plan
from .query_info import QueryInfo, analyze_query

Statement = Union[str, ast.Statement, QueryInfo]

_CALLS_SELECT = BoundMetric(
    "counter", "optimizer.calls", "optimizer invocations by statement kind",
    kind="select",
)
_CALLS_DML = BoundMetric("counter", "optimizer.calls", kind="dml")


class Optimizer:
    """Cost-based optimizer over a :class:`~repro.engine.Database`.

    *include_schema_indexes* False hides the catalog's built secondary
    indexes: plans see the clustered PKs and ``extra_indexes`` only.
    """

    def __init__(self, db: Database, include_schema_indexes: bool = True):
        self.db = db
        self.include_schema_indexes = include_schema_indexes
        self.calls = 0

    def analyze(self, stmt: Statement) -> QueryInfo:
        """Parse/resolve a statement into QueryInfo (idempotent)."""
        if isinstance(stmt, QueryInfo):
            return stmt
        if isinstance(stmt, str):
            stmt = parse(stmt)
        return analyze_query(stmt, self.db.schema)

    def explain(
        self,
        stmt: Statement,
        extra_indexes: Sequence[Index] = (),
        memo: Optional[PlanMemo] = None,
    ) -> Plan:
        """Plan a statement under the current configuration plus
        *extra_indexes* (typically dataless candidates).

        The catalog holds built indexes only, so a plan without
        *extra_indexes* is one the executor can run.  *memo* is this
        statement's :class:`PlanMemo`, reused across calls while the
        statistics, parameters and switches hold.
        """
        self.calls += 1
        info = self.analyze(stmt)
        indexes = (
            [*self.db.schema.indexes(), *extra_indexes]
            if self.include_schema_indexes else extra_indexes
        )
        if isinstance(info.stmt, ast.Select):
            _CALLS_SELECT.inc()
            planner = SelectPlanner(
                self.db.schema,
                self.db.stats,
                self.db.params,
                info,
                indexes,
                switches=self.db.switches,
                memo=memo,
            )
            plan = planner.plan()
        else:
            _CALLS_DML.inc()
            plan = self._explain_dml(info, indexes, memo or PlanMemo())
        return plan

    def cost(self, stmt: Statement, extra_indexes: Sequence[Index] = ()) -> float:
        """Total estimated cost of a statement."""
        return self.explain(stmt, extra_indexes).total_cost

    def _explain_dml(
        self, info: QueryInfo, indexes: Sequence[Index], memo: PlanMemo
    ) -> Plan:
        stmt = info.stmt
        schema, stats, params = self.db.schema, self.db.stats, self.db.params
        rows = affected_rows(info, schema, stats)
        steps: list[JoinStep] = []
        locate_cost = 0.0
        if isinstance(stmt, (ast.Update, ast.Delete)) and not isinstance(stmt, ast.Insert):
            if memo.locator is None:
                memo.locator = self._locator_info(info)
            planner = SelectPlanner(
                schema, stats, params, memo.locator, indexes,
                switches=self.db.switches, memo=memo,
            )
            locate_plan = planner.plan()
            steps = locate_plan.steps
            locate_cost = locate_plan.total_cost

        base = dml_base_cost(info, schema, stats, params, locate_cost, rows)
        table_name = next(iter(info.bindings.values()))
        all_indexes: dict[tuple, Index] = {}
        for idx in indexes:
            if idx.table == table_name:
                all_indexes.setdefault(idx.key, idx)
        maintenance = sum(
            maintenance_cost(info, idx, schema, stats, params, rows)
            for idx in all_indexes.values()
        )
        return Plan(
            info=info,
            steps=steps,
            rows_out=0.0,
            total_cost=base + maintenance,
            maintenance_cost=maintenance,
        )

    def _locator_info(self, info: QueryInfo) -> QueryInfo:
        """Re-cast a DML statement as the SELECT that finds its rows."""
        return analyze_query(locator_select(info.stmt), self.db.schema)


def locator_select(stmt: Union[ast.Update, ast.Delete]) -> ast.Select:
    """The SELECT that finds the rows an UPDATE or DELETE writes."""
    return ast.Select(
        items=(ast.SelectItem(ast.Star()),),
        tables=(stmt.table,),
        where=stmt.where,
    )
