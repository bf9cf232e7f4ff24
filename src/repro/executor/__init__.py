"""Plan execution over stored rows, with expressions compiled per statement."""

from .analyze import ActualPlanStats, q_error, render_explain_analyze
from .executor import ExecutionResult, Executor
from .operators import Aggregator, ExprEvaluator

__all__ = [
    "Executor",
    "ExecutionResult",
    "ExprEvaluator",
    "Aggregator",
    "ActualPlanStats",
    "q_error",
    "render_explain_analyze",
]
