"""AIM core: partial orders, candidate generation, ranking, the advisor."""

from .advisor import AimAdvisor
from .candidates import (
    CandidateGenerator,
    CandidateSet,
    joined_tables_powerset,
)
from .config import AimConfig
from .continuous import (
    ContinuousTuner,
    TuningCycleResult,
    find_prefix_redundant_indexes,
    find_unused_indexes,
)
from .covering import MODE_COVERING, MODE_NON_COVERING, try_covering_index
from .explain import Recommendation, format_bytes
from .ipp import (
    PredicateGroup,
    RangeColumnChooser,
    factorize_index_predicates,
    is_range,
)
from .knapsack import knapsack_exact, knapsack_select
from .merge import merge_by_table, merge_candidates_pairwise, merge_partial_orders
from .partial_order import PartialOrder
from .ranking import RankedCandidate, rank_candidates

__all__ = [
    "AimAdvisor",
    "AimConfig",
    "PartialOrder",
    "merge_candidates_pairwise",
    "merge_partial_orders",
    "merge_by_table",
    "CandidateGenerator",
    "CandidateSet",
    "joined_tables_powerset",
    "PredicateGroup",
    "RangeColumnChooser",
    "factorize_index_predicates",
    "is_range",
    "MODE_COVERING",
    "MODE_NON_COVERING",
    "try_covering_index",
    "RankedCandidate",
    "rank_candidates",
    "knapsack_select",
    "knapsack_exact",
    "Recommendation",
    "format_bytes",
    "ContinuousTuner",
    "TuningCycleResult",
    "find_unused_indexes",
    "find_prefix_redundant_indexes",
]
