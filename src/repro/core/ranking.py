"""Candidate ranking: gain, maintenance overhead and utility (Sec. III-F).

For every query ``q`` treated in isolation, the gain of its candidate set
``I`` is (Eq. 7)::

    U+(q, I) = (cost(q, ∅) - cost(q, I)) / cost(q, ∅) * cpu_avg(q, ∅)

``U+`` is then distributed over the indexes the plan actually uses, with
share ``s_{i,q}`` proportional to the I/O reduction attributable to each
index.  Index maintenance overhead follows Eq. 8::

    u-(i) = sum_q cost_u(q, i) / cost(q, ∅) * cpu_avg(q, ∅)

Both sides are weighted by ``w_q`` so the utilities add up to the
workload-level objective of Eq. 1.  In pure-estimation mode (no measured
statistics) ``cpu_avg(q, ∅)`` defaults to ``cost(q, ∅)``, i.e. gains are
expressed directly in optimizer cost units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..catalog import Index
from ..engine import Database
from ..optimizer import CostEvaluator, maintenance_cost
from ..workload import Workload, WorkloadQuery
from .candidates import CandidateSet
from .explain import PHASE_NARROW, format_bytes

CpuBasis = Callable[[WorkloadQuery, float], float]


@dataclass(eq=False)
class RankedCandidate:
    """A candidate index with its accounted utility: AIM's one record per
    candidate, from ranking to :class:`~repro.core.explain.Recommendation`.

    ``query_gains`` maps each query key to the gain this candidate can
    deliver for it (direct plan attribution plus inherited merged-order
    benefits); the knapsack uses it for marginal-coverage accounting so
    two orderings of one column set never double-claim a query.
    ``phase`` is the pipeline phase that picked the candidate.  Records
    compare by identity.
    """

    index: Index
    benefit: float = 0.0            # sum of weighted s_iq * U+ shares
    maintenance: float = 0.0        # weighted Eq. 8 overhead
    size_bytes: int = 0
    benefiting_queries: list[tuple[str, float]] = field(default_factory=list)
    query_gains: dict[str, float] = field(default_factory=dict)
    phase: str = PHASE_NARROW

    @property
    def utility(self) -> float:
        """``u(i) = s_iq · U+ + u-(i)`` with ``u-`` carried as a cost."""
        return self.benefit - self.maintenance

    @property
    def density(self) -> float:
        """Utility per byte of storage -- the knapsack ordering key."""
        if self.size_bytes <= 0:
            return self.utility
        return self.utility / self.size_bytes

    def explanation(self) -> str:
        """Metrics-driven justification for this index."""
        lines = [
            self.index.create_statement(),
            f"  phase: {self.phase}  size: {format_bytes(self.size_bytes)}",
            f"  expected gain: {self.benefit:.3f} cost units/interval, "
            f"maintenance overhead: {self.maintenance:.3f}, "
            f"net utility: {self.utility:.3f}",
        ]
        top = sorted(self.benefiting_queries, key=lambda t: -t[1])[:3]
        for name, gain in top:
            lines.append(f"  benefits: {name!r} (+{gain:.3f})")
        return "\n".join(lines)


def default_cpu_basis(query: WorkloadQuery, base_cost: float) -> float:
    """Estimation-mode basis: cpu_avg(q, ∅) == cost(q, ∅)."""
    return base_cost


def rank_candidates(
    evaluator: CostEvaluator,
    db: Database,
    workload: Workload,
    candidates: CandidateSet,
    cpu_basis: CpuBasis = default_cpu_basis,
) -> list[RankedCandidate]:
    """Compute per-candidate utilities for a workload.

    SELECT queries contribute gains via their attributed candidates; DML
    statements contribute maintenance overhead against *every* candidate
    on the table they write (an index pays maintenance whether or not it
    helps).

    Returns candidates ordered by density, descending.
    """
    ranked: dict[tuple, RankedCandidate] = {}
    by_table: dict[str, list[RankedCandidate]] = {}
    for idx in candidates.indexes:
        candidate = RankedCandidate(index=idx, size_bytes=db.index_size_bytes(idx))
        ranked[idx.key] = candidate
        by_table.setdefault(idx.table, []).append(candidate)
    # Per query: (used key prefix, table, contribution) triples for
    # merged-benefit inheritance (see below).  The *used prefix* -- the
    # equality chain plus range column the plan actually matched -- is
    # what another ordering must offer to play the same role.
    contributions: list[tuple[str, list[tuple[frozenset[str], str, float]]]] = []
    display_names: dict[str, str] = {}

    for query in workload:
        base_cost = evaluator.cost(query.sql, [])
        basis = cpu_basis(query, base_cost)
        if base_cost <= 0:
            continue
        if query.is_dml:
            info = evaluator.analyze(query.sql)
            for candidate in by_table.get(info.stmt.table.name, ()):
                overhead = maintenance_cost(
                    info,
                    candidate.index,
                    evaluator.optimizer.db.schema,
                    evaluator.optimizer.db.stats,
                    evaluator.optimizer.db.params,
                )
                if overhead > 0:
                    candidate.maintenance += (
                        query.weight * overhead / base_cost * basis
                    )
            continue

        attributed = candidates.attribution.get(_query_key(query), [])
        if not attributed:
            continue
        plan = evaluator.plan(query.sql, attributed)
        gain_fraction = (base_cost - plan.total_cost) / base_cost
        if gain_fraction <= 0:
            continue
        u_plus = gain_fraction * basis
        paths = {
            step.path.index.key: step.path
            for step in plan.steps
            if step.path.index is not None
        }
        savings = plan.io_savings()
        total_saved = sum(savings.values())
        if total_saved <= 0:
            # The plan improved without attributable index I/O savings
            # (e.g. sort elision only); split equally across used indexes,
            # in name order, which fixes the inheritance sums' order below.
            used = sorted(
                (path.index for key, path in paths.items() if key in ranked),
                key=lambda idx: (idx.name, idx.key),
            )
            savings = {idx.key: 1.0 for idx in used}
            total_saved = float(len(used))
        query_contributions: list[tuple[frozenset[str], str, float]] = []
        for key, saved in savings.items():
            candidate = ranked.get(key)
            if candidate is None:
                continue
            share = saved / total_saved
            contribution = query.weight * share * u_plus
            candidate.benefit += contribution
            candidate.benefiting_queries.append(
                (query.name or query.sql[:60], contribution)
            )
            path = paths[key]
            prefix = set(path.eq_columns)
            if path.range_column is not None:
                prefix.add(path.range_column)
            query_contributions.append(
                (frozenset(prefix), path.table, contribution)
            )
        contributions.append((_query_key(query), query_contributions))
        display_names[_query_key(query)] = query.name or query.sql[:60]

    _inherit_merged_benefits(ranked, candidates, contributions, display_names)

    ordered = sorted(
        ranked.values(), key=lambda c: (-c.density, c.index.name)
    )
    return ordered


def _inherit_merged_benefits(
    ranked: dict[tuple, RankedCandidate],
    candidates: CandidateSet,
    contributions: list[tuple[str, list[tuple[frozenset[str], str, float]]]],
    display_names: dict[str, str],
) -> None:
    """Paper Sec. III-F: "When index candidates are merged, the benefits
    corresponding to individual queries gets added up."

    A query's plan attributes its gain to *one* ordering of the columns
    it used; equivalent or wider merged orderings compatible with the
    query would deliver the same gain.  Each candidate's ``query_gains``
    therefore collects, per query it is attributed to, the contributions
    of used indexes whose column set it contains.  This lets one shared
    merged index outrank the per-query constituents it absorbs (without
    it, arbitrary tie-breaking among equivalent orderings starves merged
    candidates); the knapsack's marginal accounting then prevents two
    orderings from double-claiming the same query.
    """
    for query_key, used in contributions:
        for index in candidates.attribution.get(query_key, []):
            candidate = ranked.get(index.key)
            if candidate is None:
                continue
            transferable = 0.0
            for used_prefix, used_table, contribution in used:
                if used_table != candidate.index.table:
                    continue
                # The candidate must offer the plan's matched key prefix
                # as its *leading* columns (any internal order): only
                # then can it play the used index's role in this query.
                width = len(used_prefix)
                if width <= candidate.index.width and set(
                    candidate.index.columns[:width]
                ) == set(used_prefix):
                    transferable += contribution
            if transferable > candidate.query_gains.get(query_key, 0.0):
                candidate.query_gains[query_key] = transferable
    for candidate in ranked.values():
        inheritable = sum(candidate.query_gains.values())
        if inheritable > candidate.benefit:
            candidate.benefit = inheritable
            candidate.benefiting_queries = [
                (display_names.get(key, key[:60]), gain)
                for key, gain in candidate.query_gains.items()
            ]


def _query_key(query: WorkloadQuery) -> str:
    return query.normalized_sql
