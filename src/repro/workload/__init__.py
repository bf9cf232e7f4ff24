"""Workload representation and monitoring."""

from .intake import admit
from .monitor import MonitoredExecutor, WorkloadMonitor
from .query import QueryStatistics, WorkloadQuery
from .selection import (
    DEFAULT_BENEFIT_THRESHOLD,
    SelectionPolicy,
    select_representative_workload,
)
from .workload import Workload

__all__ = [
    "Workload",
    "WorkloadQuery",
    "admit",
    "QueryStatistics",
    "WorkloadMonitor",
    "MonitoredExecutor",
    "SelectionPolicy",
    "select_representative_workload",
    "DEFAULT_BENEFIT_THRESHOLD",
]
