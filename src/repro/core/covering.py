"""The ``TryCoveringIndex`` decision (paper Sec. III-D / Algorithm 2 line 3).

A covering index is only tried for a query when

1. selectivity cannot improve further -- the current plan already drives
   the table through an index whose equality prefix exhausts the query's
   index prefix predicate columns, and
2. the number of extra clustered-PK seeks is high enough to offset the
   storage cost of widening the index.  The threshold is higher for fast
   storage media (SSDs), where random seeks are cheap.
"""

from __future__ import annotations

from typing import Collection, Optional

from ..optimizer.plan import Plan
from ..optimizer.query_info import QueryInfo
from .ipp import factorize_index_predicates

MODE_COVERING = "covering"
MODE_NON_COVERING = "non-covering"


def try_covering_index(
    info: QueryInfo,
    plan: Optional[Plan],
    seek_threshold: float,
    schema=None,
) -> str:
    """Decide the candidate generation mode for one query.

    *plan* is the query's plan under the *current* configuration; pass
    None during bootstrapping (no indexes yet), which always yields
    non-covering mode -- narrow indexes first, covering in a later phase
    (Sec. III-B).  *seek_threshold* is ``AimConfig.seek_threshold``.

    When *schema* is supplied, IPP columns that lead the table's primary
    key are ignored: the clustered index already serves them, so they
    cannot block the "selectivity cannot improve further" condition.
    """
    if plan is None:
        return MODE_NON_COVERING
    for step in plan.steps:
        path = step.path
        if path.covering and path.method != "seq":
            continue
        ipp_cols = _ipp_columns(info, path.binding)
        if schema is not None:
            pk = schema.table(info.bindings[path.binding]).primary_key
            ipp_cols = {c for c in ipp_cols if c != pk[0]}
        if path.method == "seq":
            # No index helps this binding at all.  When the query has no
            # index prefix predicates, selectivity *cannot* improve, so a
            # covering (index-only) scan is the only remaining lever --
            # provided the scan is heavy enough.
            if ipp_cols:
                continue
            if path.rows_examined * step.executions >= seek_threshold:
                return MODE_COVERING
            continue
        if path.index is None:
            continue
        if ipp_cols and not ipp_cols <= set(path.eq_columns):
            # Selectivity could still improve with a better prefix.
            continue
        seeks = path.lookup_rows * step.executions
        if seeks >= seek_threshold:
            return MODE_COVERING
    return MODE_NON_COVERING


def _ipp_columns(info: QueryInfo, binding: str) -> set[str]:
    """All IPP columns of a binding across its DNF factors."""
    join_cols = {column for column, _other, _other_column in info.joins[binding]}
    groups = factorize_index_predicates(info, binding, join_cols)
    out: set[str] = set()
    for group in groups:
        out |= group.ipp_columns
    return out


def covering_extension(
    info: QueryInfo, binding: str, present: Collection[str]
) -> list[str]:
    """Columns to append so an index covers the query on *binding*
    (``ReferencedColumns(Q, t) \\ ReferencedColumns(c)``, Algorithm 4
    line 9), in deterministic order."""
    referenced = info.referenced.get(binding, set())
    return sorted(referenced - set(present))
