"""The AIM advisor: Algorithm 1 end to end.

``AimAdvisor.recommend`` runs the full pipeline on a workload:

1. (optionally) representative workload selection from monitor statistics,
2. per-query covering-mode decision (``TryCoveringIndex``),
3. structural candidate generation + partial order merging (Algorithms
   2-7, Sec. III-E),
4. candidate ranking by Eq. 7 / Eq. 8 utilities,
5. greedy knapsack selection under the storage budget,
6. a second *covering phase* for high-frequency queries whose plans still
   pay heavy PK-lookup seeks under the phase-1 configuration (Sec. III-B),
7. "no regression" validation (Eq. 4 with λ3), planned on the source
   database with dataless indexes, and the Eq. 3 minimum-improvement
   gate (λ2).

One :class:`~repro.core.ranking.RankedCandidate` per candidate carries
it from ranking to the :class:`~repro.core.explain.Recommendation`.
The advisor never mutates the database; callers materialize
``recommendation.indexes`` themselves (or via
:class:`~repro.core.continuous.ContinuousTuner`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from ..catalog import Index
from ..engine import Database
from ..obs import AdvisorDecision, Span, emit, trace
from ..optimizer import CostEvaluator
from ..workload import (
    SelectionPolicy,
    Workload,
    WorkloadMonitor,
    WorkloadQuery,
    select_representative_workload,
)
from .candidates import CandidateGenerator, CandidateSet
from .config import AimConfig
from .covering import MODE_COVERING, MODE_NON_COVERING, try_covering_index
from .explain import PHASE_COVERING, Recommendation
from .ipp import RangeColumnChooser
from .knapsack import knapsack_select
from .ranking import RankedCandidate, default_cpu_basis, rank_candidates


@contextmanager
def advisor_phase(name: str, evaluator: CostEvaluator) -> Iterator[Span]:
    """Trace one pipeline phase and account its optimizer-call share.

    Each phase span carries the number of (uncached) optimizer
    invocations it triggered; ``Tracer.summary()`` sums them per phase,
    turning the single ``optimizer_calls`` integer of the seed into a
    per-phase decomposition (paper Table 2 / Fig 6 claims).
    """
    calls_before = evaluator.optimizer_calls
    with trace(name) as span:
        try:
            yield span
        finally:
            span.set(optimizer_calls=evaluator.optimizer_calls - calls_before)


class AimAdvisor:
    """Automatic Index Manager over one database."""

    def __init__(
        self,
        db: Database,
        config: AimConfig = AimConfig(),
        monitor: Optional[WorkloadMonitor] = None,
    ):
        self.db = db
        self.config = config
        self.monitor = monitor

    # -- public API ---------------------------------------------------------------

    def recommend_from_monitor(
        self,
        budget_bytes: int,
        policy: SelectionPolicy = SelectionPolicy(),
    ) -> Recommendation:
        """Representative workload selection (Sec. III-C) + recommend."""
        if self.monitor is None:
            raise RuntimeError("advisor has no workload monitor attached")
        with trace("advisor.workload_selection") as span:
            workload = select_representative_workload(self.monitor, policy)
            span.set(selected_queries=len(workload))
        return self.recommend(workload, budget_bytes)

    def recommend(
        self,
        workload: Workload,
        budget_bytes: int,
        evaluator: Optional[CostEvaluator] = None,
    ) -> Recommendation:
        """Run Algorithm 1 on *workload* under *budget_bytes*.

        The default evaluator ignores built indexes (bootstrapping); pass
        ``CostEvaluator(db, include_schema_indexes=True)`` to measure gains
        over the current indexes (continuous tuning).  A reused evaluator
        keeps its plan caches across runs, which makes repeated
        recommendations over a stable workload nearly free of optimizer
        calls.  ``optimizer_calls`` on the result always counts this run.
        """
        if evaluator is None:
            evaluator = CostEvaluator(self.db)
        calls_start = evaluator.optimizer_calls
        generator = self._generator(evaluator)

        with trace("advisor.recommend", queries=len(workload)) as root:
            with advisor_phase("advisor.baseline_cost", evaluator):
                cost_before = evaluator.workload_cost(workload.pairs())

            # Phase 1: narrow (non-covering) indexes for every tuning target.
            selects = [q for q in workload if not q.is_dml]
            with advisor_phase("advisor.candidate_generation", evaluator) as span:
                phase1_queries = [
                    (q.normalized_sql, evaluator.analyze(q.sql), MODE_NON_COVERING)
                    for q in selects
                ]
                candidates = generator.generate(phase1_queries)
                span.set(candidates=len(candidates.indexes))

            with advisor_phase("advisor.ranking", evaluator) as span:
                ranked = rank_candidates(
                    evaluator, self.db, workload, candidates, self._cpu_basis
                )
                span.set(ranked=len(ranked))

            with advisor_phase("advisor.knapsack", evaluator) as span:
                selected = knapsack_select(ranked, budget_bytes)
                span.set(selected=len(selected))
            for candidate in selected:
                self._emit_decision("accepted", "knapsack_selected", candidate)
            for candidate in ranked:
                if candidate not in selected:
                    self._emit_decision("rejected", "knapsack_evicted", candidate)

            # Phase 2: covering indexes for very frequent, still-seek-heavy
            # queries, evaluated on top of the phase-1 configuration.
            if self.config.covering_phase:
                with advisor_phase("advisor.covering_phase", evaluator) as span:
                    selected = self._covering_phase(
                        evaluator, generator, workload, selects,
                        selected, budget_bytes,
                    )
                    span.set(selected=len(selected))
            selected = self._one_index_per_name(selected)

            # Validation: the no-regression guarantee (Eq. 4).
            rejected: list[Index] = []
            if self.config.validate:
                with advisor_phase("advisor.validation", evaluator) as span:
                    selected, rejected = self._validate(
                        evaluator, workload, selected
                    )
                    span.set(accepted=len(selected), rejected=len(rejected))

            with advisor_phase("advisor.finalize", evaluator) as span:
                chosen_indexes = [c.index for c in selected]
                cost_after = evaluator.workload_cost(
                    workload.pairs(), chosen_indexes
                )
                # Eq. 3: require a minimum improvement for at least one query.
                if selected and not self._improves_some_query(
                    evaluator, workload, chosen_indexes
                ):
                    for candidate in selected:
                        self._emit_decision(
                            "rejected", "below_min_improvement", candidate
                        )
                    selected, chosen_indexes = [], []
                    cost_after = cost_before
                span.set(chosen=len(chosen_indexes))

            root.set(optimizer_calls=evaluator.optimizer_calls - calls_start)

        created = sorted(selected, key=lambda c: c.utility, reverse=True)
        for candidate in created:
            candidate.index = candidate.index.materialized()
        return Recommendation(
            created=created,
            budget_bytes=budget_bytes,
            cost_before=cost_before,
            cost_after=cost_after,
            runtime_seconds=root.duration,
            optimizer_calls=evaluator.optimizer_calls - calls_start,
            rejected_for_regression=rejected,
        )

    # -- pipeline pieces --------------------------------------------------------

    def _emit_decision(
        self, action: str, reason: str, candidate: RankedCandidate
    ) -> None:
        """Journal one accept/reject transition of Algorithm 1."""
        index = candidate.index
        emit(
            AdvisorDecision(
                action=action,
                reason=reason,
                index=index.name,
                table=index.table,
                columns=tuple(index.columns),
                phase=candidate.phase,
                benefit=candidate.benefit,
                maintenance=candidate.maintenance,
                size_bytes=candidate.size_bytes,
                database=self.db.name,
            )
        )

    def _generator(self, evaluator: CostEvaluator) -> CandidateGenerator:
        if self.config.use_dataless_guidance:
            chooser = RangeColumnChooser(evaluator=evaluator)
        else:
            chooser = RangeColumnChooser(evaluator=None, stats_lookup=None)
        return CandidateGenerator(
            self.db.schema,
            self.db.stats,
            self.config,
            switches=self.db.switches,
            range_chooser=chooser,
        )

    def _cpu_basis(self, query: WorkloadQuery, base_cost: float) -> float:
        """cpu_avg(q, ∅) from the monitor when available, else the
        estimated base cost (pure-estimation mode)."""
        if self.monitor is not None:
            stats = self.monitor.stats.get(query.normalized_sql)
            if stats is not None and stats.cpu_avg > 0:
                return stats.cpu_avg
        return default_cpu_basis(query, base_cost)

    def _covering_phase(
        self,
        evaluator: CostEvaluator,
        generator: CandidateGenerator,
        workload: Workload,
        selects: list[WorkloadQuery],
        selected: list[RankedCandidate],
        budget_bytes: int,
    ) -> list[RankedCandidate]:
        phase1_indexes = [c.index for c in selected]
        total_weight = max(1e-9, workload.total_weight)
        min_weight = self.config.covering_weight_fraction * total_weight

        covering_queries = []
        for query in selects:
            if query.weight < min_weight:
                continue
            plan = evaluator.plan(query.sql, phase1_indexes)
            mode = try_covering_index(
                evaluator.analyze(query.sql),
                plan,
                self.config.seek_threshold,
                schema=self.db.schema,
            )
            if mode == MODE_COVERING:
                covering_queries.append(
                    (query.normalized_sql, evaluator.analyze(query.sql), mode)
                )
        if not covering_queries:
            return selected

        covering_candidates = generator.generate(covering_queries)
        # Drop covering candidates already selected in phase 1.
        phase1_keys = {idx.key for idx in phase1_indexes}
        fresh = CandidateSet(
            orders=covering_candidates.orders,
            indexes=[
                idx for idx in covering_candidates.indexes
                if idx.key not in phase1_keys
            ],
            attribution=covering_candidates.attribution,
        )
        if not fresh.indexes:
            return selected
        ranked2 = rank_candidates(
            evaluator, self.db, workload, fresh, self._cpu_basis
        )
        remaining = budget_bytes - sum(c.size_bytes for c in selected)
        extra = knapsack_select(ranked2, remaining)
        for candidate in extra:
            candidate.phase = PHASE_COVERING
            self._emit_decision("accepted", "covering_promoted", candidate)
        merged = selected + extra

        # A covering index may subsume a narrower phase-1 pick; drop
        # subsumed prefixes to reclaim budget.
        final: list[RankedCandidate] = []
        for candidate in merged:
            subsumed = any(
                candidate.index.is_prefix_of(other.index)
                for other in merged
                if other is not candidate
            )
            if not subsumed:
                final.append(candidate)
            else:
                self._emit_decision("rejected", "subsumed_by_covering", candidate)
        return final

    def _one_index_per_name(
        self, selected: list[RankedCandidate]
    ) -> list[RankedCandidate]:
        """Drop a pick whose name an earlier pick or a built index with
        another key holds: the catalog holds one index per name
        (:meth:`~repro.catalog.Schema.add_index`).  Picks come in knapsack
        order, phase 1 first, so of two picks sharing a name the denser
        one stays."""
        holders = {idx.name: idx.key for idx in self.db.schema.indexes()}
        kept: list[RankedCandidate] = []
        for candidate in selected:
            index = candidate.index
            if holders.setdefault(index.name, index.key) == index.key:
                kept.append(candidate)
            else:
                self._emit_decision("rejected", "name_taken", candidate)
        return kept

    def _validate(
        self,
        evaluator: CostEvaluator,
        workload: Workload,
        selected: list[RankedCandidate],
    ) -> tuple[list[RankedCandidate], list[Index]]:
        """Eq. 4: drop indexes until no query's *plan* regresses beyond λ3.

        Validation covers SELECT plans, which catches optimizer plan
        regressions.  DML maintenance overhead is intentionally out
        of scope here: it is already charged against each index's utility
        via Eq. 8, and any nonzero maintenance would otherwise "regress" a
        cheap point-write by more than λ3 and veto every index on a
        written table.
        """
        rejected: list[Index] = []
        current = list(selected)
        for _ in range(len(selected) + 1):
            config = [c.index for c in current]
            worst: tuple[float, Optional[WorkloadQuery]] = (0.0, None)
            for query in workload:
                if query.is_dml:
                    continue
                base = evaluator.cost(query.sql, [])
                with_config = evaluator.cost(query.sql, config)
                if base <= 0:
                    continue
                regression = with_config / base - 1.0
                if regression > self.config.lambda3 and regression > worst[0]:
                    worst = (regression, query)
            if worst[1] is None:
                return current, rejected
            # Drop the lowest-utility index affecting the regressing query.
            query = worst[1]
            info = evaluator.analyze(query.sql)
            tables = set(info.bindings.values())
            affecting = [c for c in current if c.index.table in tables]
            if not affecting:
                return current, rejected
            victim = min(affecting, key=lambda c: c.utility)
            current = [c for c in current if c is not victim]
            rejected.append(victim.index)
            self._emit_decision("rejected", "validation_regression", victim)
        return current, rejected

    def _improves_some_query(
        self,
        evaluator: CostEvaluator,
        workload: Workload,
        config: list[Index],
    ) -> bool:
        """Eq. 3: at least one query improves by at least λ2."""
        for query in workload:
            base = evaluator.cost(query.sql, [])
            if base <= 0:
                continue
            improved = evaluator.cost(query.sql, config)
            if improved <= (1.0 - self.config.lambda2) * base:
                return True
        return False
