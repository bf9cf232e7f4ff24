"""MyShadow: clone-and-replay validation (paper Sec. VII-B).

MyShadow provides a temporary logical copy of a database and replays
(sampled) production traffic onto it, catching regressions "that are only
possible to detect in a production-like environment" before any index
reaches production.  Here the replay compares per-query estimated costs
between the current and the candidate configuration, so it needs no rows
and no copy: it plans on the source database and sees its current
settings and indexes.  Isolation comes from the candidate indexes being
planner arguments (dataless what-if indexes), never catalog entries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..catalog import Index
from ..engine import Database
from ..optimizer import CostEvaluator
from ..workload import Workload, WorkloadQuery


@dataclass
class ShadowReport:
    """Outcome of one shadow replay."""

    improved: list[tuple[str, float]] = field(default_factory=list)
    regressed: list[tuple[str, float]] = field(default_factory=list)
    unchanged: int = 0
    cost_before: float = 0.0
    cost_after: float = 0.0

    @property
    def safe(self) -> bool:
        return not self.regressed


class MyShadow:
    """A production-like test bed for candidate configurations."""

    def __init__(
        self,
        db: Database,
        sample_fraction: float = 1.0,
        seed: int = 0,
    ):
        self.source = db
        self.sample_fraction = sample_fraction
        self._rng = random.Random(seed)

    def sample_traffic(self, workload: Workload) -> list[WorkloadQuery]:
        """Sample the workload to replay (MyShadow can subsample)."""
        if self.sample_fraction >= 1.0:
            return list(workload.queries)
        keep = max(1, int(len(workload) * self.sample_fraction))
        return self._rng.sample(list(workload.queries), keep)

    def validate(
        self,
        workload: Workload,
        candidate_indexes: list[Index],
        regression_lambda: float = 0.10,
        improvement_lambda: float = 0.05,
    ) -> ShadowReport:
        """Replay traffic against current vs candidate configuration.

        A query counts as regressed when Eq. 4's bound is violated
        (cost ratio above ``1 + λ3``) and as improved when it clears
        Eq. 3's bar (ratio below ``1 - λ2``).
        """
        evaluator = CostEvaluator(self.source, include_schema_indexes=True)
        report = ShadowReport()
        traffic = self.sample_traffic(workload)
        for query in traffic:
            before = evaluator.cost(query.sql, [])
            after = evaluator.cost(query.sql, candidate_indexes)
            report.cost_before += query.weight * before
            report.cost_after += query.weight * after
            if before <= 0:
                report.unchanged += 1
                continue
            ratio = after / before
            if not query.is_dml and ratio > 1.0 + regression_lambda:
                report.regressed.append((query.name or query.sql[:60], ratio))
            elif ratio < 1.0 - improvement_lambda:
                report.improved.append((query.name or query.sql[:60], ratio))
            else:
                report.unchanged += 1
        return report
