"""Representative workload selection (paper Sec. III-C).

From the monitor's per-normalized-query statistics, select the queries
worth tuning: frequent enough to matter (frequency threshold weeds out ad
hoc executions), with a high optimistic expected benefit
``B = (1 - ddr_avg) * cpu_avg`` (Eq. 5).
"""

from __future__ import annotations

from dataclasses import dataclass

from .monitor import WorkloadMonitor
from .query import WorkloadQuery
from .workload import Workload

#: Paper's example benefit threshold: 1/20 of a CPU core (in CPU seconds
#: per execution-window second; we express it directly in cost units).
DEFAULT_BENEFIT_THRESHOLD = 0.05


@dataclass(frozen=True)
class SelectionPolicy:
    """Thresholds controlling representative workload selection.

    Attributes:
        min_executions: executions below this are considered spurious.
        min_benefit: minimum expected benefit ``B`` per Eq. 5.
    """

    min_executions: int = 2
    min_benefit: float = DEFAULT_BENEFIT_THRESHOLD


def select_representative_workload(
    monitor: WorkloadMonitor,
    policy: SelectionPolicy = SelectionPolicy(),
) -> Workload:
    """Pick the queries that need tuning, weighted by execution count.

    DML statements never *trigger* tuning, but they are carried along with
    zero benefit so that index maintenance overhead (Eq. 8) is accounted
    against the same workload.
    """
    selected: list[WorkloadQuery] = []
    carried: list[WorkloadQuery] = []
    candidates = monitor.top_by_benefit()
    for stats in candidates:
        query = WorkloadQuery(
            sql=stats.example_sql or stats.normalized_sql,
            weight=float(stats.executions),
            name=stats.normalized_sql[:60],
        )
        if query.is_dml:
            if stats.executions >= policy.min_executions:
                carried.append(query)
            continue
        if stats.executions < policy.min_executions:
            continue
        if stats.expected_benefit < policy.min_benefit:
            continue
        selected.append(query)
    return Workload(selected + carried, name="representative")

