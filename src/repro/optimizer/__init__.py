"""Cost-based query optimizer with what-if (dataless) index support."""

from .access_path import ProbeContext, TableContext, best_path, enumerate_paths
from .cost_model import affected_rows, index_is_affected, maintenance_cost
from .optimizer import Optimizer
from .plan import AccessPath, JoinStep, Plan
from .query_info import OrderColumn, QueryInfo, ResolutionError, analyze_query
from .selectivity import atomic_selectivity, constant_value, expr_selectivity
from .switches import DEFAULT_SWITCHES, OptimizerSwitches
from .what_if import CostEvaluator, WorkloadCoster

__all__ = [
    "Optimizer",
    "CostEvaluator",
    "WorkloadCoster",
    "Plan",
    "AccessPath",
    "JoinStep",
    "QueryInfo",
    "OrderColumn",
    "ResolutionError",
    "analyze_query",
    "enumerate_paths",
    "best_path",
    "ProbeContext",
    "TableContext",
    "atomic_selectivity",
    "expr_selectivity",
    "constant_value",
    "maintenance_cost",
    "index_is_affected",
    "affected_rows",
    "OptimizerSwitches",
    "DEFAULT_SWITCHES",
]
