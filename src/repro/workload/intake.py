"""Workload intake: quarantine statements no advisor can plan.

A workload file, like the traffic a monitor sees, may hold statements
outside the parser dialect or naming tables and columns the schema does
not have.  :func:`admit` parses and resolves every statement once, before
any advisor runs, and hands back the workload without the bad ones.  Each
skipped statement is counted in ``workload.statements_skipped{reason=}``
and journaled as a ``statement_skipped`` event.  The parsed statements and
their analyses stay cached, so the advisor parses nothing again.
"""

from __future__ import annotations

from ..catalog import CatalogError, Schema
from ..obs import StatementSkipped, emit, get_registry
from ..optimizer.query_info import ResolutionError
from ..sqlparser import LexError, ParseError
from .workload import Workload


def admit(
    workload: Workload, schema: Schema
) -> tuple[Workload, list[StatementSkipped]]:
    """Split *workload* into the statements *schema* can resolve and a
    :class:`StatementSkipped` record for each one it cannot."""
    admitted = []
    skipped: list[StatementSkipped] = []
    for position, query in enumerate(workload, start=1):
        try:
            query.analyze(schema)
        except (LexError, ParseError) as exc:
            reason, detail = "parse", str(exc)
        except (CatalogError, ResolutionError) as exc:
            # KeyError's str() quotes its message; take the bare text.
            reason, detail = "resolve", str(exc.args[0] if exc.args else exc)
        else:
            admitted.append(query)
            continue
        event = StatementSkipped(
            position=position,
            reason=reason,
            detail=detail,
            statement=query.sql,
            workload=workload.name,
        )
        get_registry().counter(
            "workload.statements_skipped",
            "workload statements quarantined at intake, by reason",
        ).inc(reason=reason)
        emit(event)
        skipped.append(event)
    return Workload(admitted, name=workload.name), skipped
