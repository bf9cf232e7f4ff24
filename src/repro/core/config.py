"""AIM's settings, each with one home.

Candidate generation, the covering decision, the advisor's gates and the
MyShadow replay all read their tunables from :class:`AimConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class AimConfig:
    """All AIM tunables in one place.

    Attributes:
        join_parameter: the paper's ``j`` (Sec. IV-C; Fig 6 sweeps it) --
            tables joined with more than ``j`` others are not
            exhaustively explored (Algorithm 3).
        max_index_width: optional cap on candidate width (None =
            unbounded, as AIM; useful for like-for-like baseline
            comparisons).
        merge_orders: Sec. III-E merging (ablation switch).
        use_dataless_guidance: use dataless-index costs to pick the range
            column in Algorithm 5 (ablation switch; when off, the first
            range column by name is picked, with no statistics consulted).
        ipp_relaxation_rows: Sec. V-A's third granularity lever --
            "relaxation / reduction of the number of sub-predicates in the
            index prefix predicates".  When set, the most selective IPP
            columns are kept until the estimated matched rows fall to this
            threshold and the rest are left out of the candidate.  None
            keeps every IPP column (the paper's behaviour).
        seek_threshold: minimum PK lookups per execution before a covering
            index is tried (Sec. III-B; raise for SSD-backed databases).
        covering_phase: enable the second (covering) phase entirely.
        covering_weight_fraction: a query enters the covering phase only
            if it carries at least this fraction of the workload weight
            ("executes extremely frequently", Sec. III-B).
        lambda2: Eq. 3 -- minimum relative improvement some query must see
            for the recommendation to be worth applying.
        lambda3: Eq. 4 -- maximum tolerated relative regression per query.
        validate: run the no-regression validation pass.

    Whether gains count over the database's current indexes is the
    evaluator's choice (``AimAdvisor.recommend``), not a config field.
    """

    join_parameter: int = 2
    max_index_width: Optional[int] = None
    merge_orders: bool = True
    use_dataless_guidance: bool = True
    ipp_relaxation_rows: Optional[float] = None
    seek_threshold: float = 100.0
    covering_phase: bool = True
    covering_weight_fraction: float = 0.02
    lambda2: float = 0.05
    lambda3: float = 0.10
    validate: bool = True
