"""AIM wrapped in the common SelectionAlgorithm interface.

Lets the benchmark harness sweep AIM and the baselines uniformly
(Fig 4/5/6 all compare them on the same axes).
"""

from __future__ import annotations

from ..core import AimAdvisor
from ..optimizer import CostEvaluator
from ..workload import Workload
from .base import SelectionAlgorithm


class AimAlgorithm(SelectionAlgorithm):
    """The paper's algorithm behind the baseline-comparison interface."""

    name = "aim"

    def _select(self, evaluator: CostEvaluator, workload: Workload, budget_bytes: int):
        # Drive AIM through the shared evaluator: call accounting is
        # uniform, and a caller-held evaluator keeps its caches warm
        # across repeated runs.
        recommendation = AimAdvisor(self.db).recommend(
            workload, budget_bytes, evaluator=evaluator
        )
        return [idx.as_dataless() for idx in recommendation.indexes]
