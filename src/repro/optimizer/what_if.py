"""What-if (hypothetical configuration) cost evaluation with caching.

:class:`CostEvaluator` is the service every index-selection algorithm
drives: *what would query q cost under index configuration X?*  Indexes
are evaluated dataless -- statistics only, passed to the planner as
``extra_indexes`` and never entered into the catalog, the AutoAdmin
"what-if" / HypoPG mechanism the paper builds on (Sec. III-A4).

The evaluator "rarely consults the optimizer" (paper Sec. III) through
three tiers on one serial code path:

* **Relevance pruning** (tier 0): a configuration is projected onto the
  indexes that can possibly serve the query -- same table AND at least
  one key column carrying a sargable predicate, join edge, GROUP BY or
  ORDER BY column (:meth:`QueryInfo.usable_columns`).  An index the
  access-path enumerator would reject anyway short-circuits to the
  bare-config plan with zero optimizer calls.  DML is never
  column-pruned (every index on the written table pays maintenance).
* **L1 exact cache**: bounded LRU keyed by ``(statement SQL, structural
  keys of the relevant subset)``.
* **L2 canonical cache** (SELECT only): the AutoAdmin atomic-
  configuration rule.  When planning relevant set ``C`` produced plan
  ``P`` using subset ``used(C)``, any lookup ``C'`` with
  ``used(C) ⊆ C' ⊆ C`` is served ``P`` without an optimizer call: every
  path available under ``C'`` was available under ``C`` (``C' ⊆ C``), so
  ``P`` -- optimal under ``C`` and feasible under ``C'``
  (``used(C) ⊆ C'``) -- is optimal under ``C'`` too.

Both tiers are bounded; evictions and hits are exported as ``whatif.*``
counters (docs/OBSERVABILITY.md).  A request that misses both still
does not plan from scratch: each statement keeps a
:class:`~repro.optimizer.join_order.PlanMemo` of everything about its
plan no index configuration changes -- per-binding costing contexts,
seq/PK paths, each index's path once per probe context, join
selectivities -- so the optimizer costs only indexes the statement has
not met before and the join search runs over cached numbers.

The evaluator plans on the database it is given, never on a copy: the
hypothetical configuration reaches the planner only as an argument, so
the database's current statistics, switches and cost parameters are
always the ones planned with.  Every tier returns exactly the plan an
uncached :class:`Optimizer` would; the tests in
``tests/test_whatif_cache.py`` check costs and used-index subsets
against one.  Every tier holds plans of one
:attr:`Database.plan_version` (index configuration, statistics epoch,
switches, cost parameters) and all are dropped together when it
changes, so no caller flushes an evaluator by hand.

:class:`WorkloadCoster` lifts the relevance rule to whole workloads: a
greedy move that adds, drops or replaces a few indexes re-plans only the
statements one of those indexes is relevant to.
"""

from __future__ import annotations

from typing import Collection, Iterable, Optional

from ..catalog import Index, Schema
from ..engine import Database
from ..obs import BoundMetric
from ..sqlparser import ast
from .analysis_cache import LRUCache, analyze_cached
from .join_order import PlanMemo
from .optimizer import Optimizer, Statement
from .plan import Plan
from .query_info import QueryInfo

#: Bound on the per-evaluator L1 exact plan cache.
PLAN_CACHE_SIZE = 8192

#: Bound on canonical entries kept per statement (L2).
CANONICAL_ENTRIES_PER_STATEMENT = 16

#: Bound on statements with a planning memo (LRU).
MEMO_STATEMENTS = 2048

_EVALS = BoundMetric(
    "counter", "whatif.evaluations", "what-if plan requests (cached + uncached)"
)
_HITS = BoundMetric("counter", "whatif.cache_hits", "what-if plan cache hits")
_CANONICAL_HITS = BoundMetric(
    "counter", "whatif.canonical_hits",
    "what-if hits served by the canonical used(C)⊆C'⊆C rule",
)
_EVICTIONS = BoundMetric(
    "counter", "whatif.cache_evictions", "what-if plan cache LRU evictions"
)
_SCORED = BoundMetric(
    "counter", "whatif.coster.scored",
    "configurations scored incrementally by WorkloadCoster",
)


def relevance(info: QueryInfo) -> dict[str, Optional[frozenset]]:
    """The relevance rule: which indexes can change *info*'s plan.

    Maps each table to the key columns that make an index on it relevant,
    or to None when every index on the table is (DML: each index on the
    written table pays maintenance).  An index is relevant iff its table
    is mapped and, for a column set, one of its key columns is in it.
    Both :meth:`CostEvaluator.plan` and :class:`WorkloadCoster` project
    configurations through this one function.
    """
    if isinstance(info.stmt, ast.Select):
        return info.usable_columns()
    return dict.fromkeys(info.bindings.values())


class CostEvaluator:
    """Cached what-if cost evaluation over a database.

    Args:
        db: the database planned on; the evaluator never modifies it.
        include_schema_indexes: when False (the default for advisor runs),
            configurations are evaluated from scratch -- plans see only
            the clustered PKs plus the hypothetical configuration, not
            *db*'s built secondary indexes.  When True, the database's
            current secondary indexes stay visible (continuous-tuning
            mode).
    """

    def __init__(
        self,
        db: Database,
        include_schema_indexes: bool = False,
    ):
        self._db = db
        self.optimizer = Optimizer(db, include_schema_indexes=include_schema_indexes)
        self._plan_cache: LRUCache = LRUCache(
            PLAN_CACHE_SIZE, on_evict=self._record_eviction
        )
        # sql -> [(used keys, config keys, plan), ...] newest last.
        self._canonical: dict[str, list[tuple[frozenset, frozenset, Plan]]] = {}
        self._memos: LRUCache = LRUCache(MEMO_STATEMENTS)
        self._plan_version = self._db.plan_version
        self.cache_hits = 0
        self.canonical_hits = 0
        self.cache_evictions = 0

    # -- bookkeeping --------------------------------------------------------

    @property
    def optimizer_calls(self) -> int:
        """Number of *uncached* optimizer invocations so far."""
        return self.optimizer.calls

    @property
    def schema(self) -> Schema:
        """The schema statements are analyzed and planned against."""
        return self._db.schema

    def _record_eviction(self, _key, _plan) -> None:
        self.cache_evictions += 1
        _EVICTIONS.inc()

    def cache_stats(self) -> dict:
        """Cache-tier snapshot (bench_perf / obs-report material)."""
        return {
            "exact_hits": self.cache_hits - self.canonical_hits,
            "canonical_hits": self.canonical_hits,
            "evictions": self.cache_evictions,
            "l1_entries": len(self._plan_cache),
            "canonical_statements": len(self._canonical),
            "optimizer_calls": self.optimizer.calls,
        }

    # -- analysis -----------------------------------------------------------

    def analyze(self, stmt: Statement) -> QueryInfo:
        return analyze_cached(self._db.schema, stmt)

    # -- planning -----------------------------------------------------------

    def _relevant(self, info: QueryInfo, config: Collection[Index]) -> list[Index]:
        """Project *config* onto the indexes that can affect *info*'s plan."""
        if not config:
            return []
        rule = relevance(info)
        out = []
        for idx in config:
            columns = rule.get(idx.table, _EMPTY)
            if columns is None or not columns.isdisjoint(idx.columns):
                out.append(idx)
        return out

    def plan(self, stmt: Statement, config: Collection[Index] = ()) -> Plan:
        """Plan *stmt* under hypothetical configuration *config*."""
        version = self._db.plan_version
        if version != self._plan_version:
            self._drop_caches(version)
        info = self.analyze(stmt)
        relevant = self._relevant(info, config)
        sql = info.cache_sql
        if not sql:
            sql = info.cache_sql = info.stmt.to_sql()
        relevant_keys = frozenset(idx.key for idx in relevant)
        key = (sql, relevant_keys)
        _EVALS.inc()
        cached = self._plan_cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            _HITS.inc()
            return cached
        is_select = isinstance(info.stmt, ast.Select)
        if is_select and relevant:
            canonical = self._canonical_lookup(sql, relevant_keys)
            if canonical is not None:
                self.cache_hits += 1
                self.canonical_hits += 1
                _HITS.inc()
                _CANONICAL_HITS.inc()
                # Promote to an exact entry: the next identical lookup is O(1).
                self._plan_cache.put(key, canonical)
                return canonical
        memo = self._memos.get(sql)
        if memo is None:
            memo = PlanMemo()
            self._memos.put(sql, memo)
        plan = self.optimizer.explain(info, extra_indexes=relevant, memo=memo)
        self._plan_cache.put(key, plan)
        if is_select and relevant:
            used_keys = relevant_keys.intersection(plan.used_index_keys)
            self._canonical_store(sql, used_keys, relevant_keys, plan)
        return plan

    def _drop_caches(self, version: tuple) -> None:
        """Forget every plan and memo: a planner input changed."""
        self._plan_cache.clear()
        self._canonical.clear()
        self._memos.clear()
        self._plan_version = version

    def _canonical_lookup(
        self, sql: str, config_keys: frozenset
    ) -> Optional[Plan]:
        entries = self._canonical.get(sql)
        if not entries:
            return None
        for used, config, plan in reversed(entries):
            if used <= config_keys <= config:
                return plan
        return None

    def _canonical_store(
        self,
        sql: str,
        used_keys: frozenset,
        config_keys: frozenset,
        plan: Plan,
    ) -> None:
        if used_keys == config_keys:
            # Serves only C' == C, which the exact tier already covers.
            return
        entries = self._canonical.setdefault(sql, [])
        for i, (used, config, _existing) in enumerate(entries):
            if used == used_keys:
                if config_keys <= config:
                    return                      # existing entry is wider
                if config <= config_keys:
                    entries[i] = (used_keys, config_keys, plan)
                    return                      # widen in place
        entries.append((used_keys, config_keys, plan))
        if len(entries) > CANONICAL_ENTRIES_PER_STATEMENT:
            entries.pop(0)
            self.cache_evictions += 1
            _EVICTIONS.inc()

    # -- costs --------------------------------------------------------------

    def cost(self, stmt: Statement, config: Collection[Index] = ()) -> float:
        return self.plan(stmt, config).total_cost

    def workload_cost(
        self,
        queries: Iterable[tuple[Statement, float]],
        config: Collection[Index] = (),
    ) -> float:
        """Weighted workload cost: ``sum w_q * cost(q, X)`` (Eq. 1).

        The weighted sum is accumulated in query order, so the result is
        the same float however the per-query costs were obtained
        (:meth:`statement_costs`, :class:`WorkloadCoster`).
        """
        items = list(queries)
        return weighted_sum(items, self.statement_costs(items, config))

    def statement_costs(
        self,
        queries: Iterable[tuple[Statement, float]],
        config: Collection[Index] = (),
    ) -> list[float]:
        """Per-query costs under *config*, in query order."""
        return [self.cost(stmt, config) for stmt, _weight in queries]

    # -- introspection ------------------------------------------------------

    def used_subset(
        self, stmt: Statement, config: Collection[Index]
    ) -> list[Index]:
        """The subset of *config* the plan for *stmt* actually uses."""
        used = self.plan(stmt, config).used_index_keys
        return [idx for idx in config if idx.key in used]


def weighted_sum(items: list[tuple[Statement, float]], costs: list[float]) -> float:
    """``sum w_q * cost_q`` accumulated in query order (Eq. 1)."""
    return sum(weight * cost for (_stmt, weight), cost in zip(items, costs))


class WorkloadCoster:
    """Incremental workload costing for greedy configuration moves.

    Holds the per-statement cost vector of a *base* configuration and an
    inverted map from what an index touches -- ``(table, column)`` for a
    column-level :func:`relevance` entry, ``(table, None)`` for a
    table-level one -- to statement positions.  :meth:`cost` diffs a
    configuration against the base by :attr:`Index.key` and re-plans only
    the statements a changed index is relevant to.

    Every other statement's relevant subset, and with it its plan-cache
    key, is the same as under the base, so its base cost is exactly what
    :meth:`CostEvaluator.cost` would return; the vector is re-summed in
    query order, so ``coster.cost(X) == evaluator.workload_cost(queries,
    X)`` bit for bit.  :meth:`rebase` commits an accepted move.
    """

    def __init__(
        self,
        evaluator: CostEvaluator,
        queries: Iterable[tuple[Statement, float]],
        base: Collection[Index] = (),
    ):
        self._evaluator = evaluator
        self._items = [
            (evaluator.analyze(stmt), weight) for stmt, weight in queries
        ]
        self._listeners: dict[tuple, list[int]] = {}
        for pos, (info, _weight) in enumerate(self._items):
            for table, columns in relevance(info).items():
                for column in (None,) if columns is None else columns:
                    self._listeners.setdefault((table, column), []).append(pos)
        self._base_keys = frozenset(idx.key for idx in base)
        self._costs = evaluator.statement_costs(self._items, base)

    def _affected(self, changed: Iterable[tuple]) -> list[int]:
        """Positions of statements some changed index key is relevant to."""
        listeners = self._listeners
        out: set[int] = set()
        for table, columns, _unique in changed:
            out.update(listeners.get((table, None), ()))
            for column in columns:
                out.update(listeners.get((table, column), ()))
        return sorted(out)

    def costs(self, config: Collection[Index]) -> list[float]:
        """Per-statement costs under *config* (only affected ones re-planned)."""
        keys = frozenset(idx.key for idx in config)
        positions = self._affected(keys ^ self._base_keys)
        costs = list(self._costs)
        if positions:
            fresh = self._evaluator.statement_costs(
                [self._items[pos] for pos in positions], config
            )
            for pos, cost in zip(positions, fresh):
                costs[pos] = cost
        return costs

    def cost(self, config: Collection[Index]) -> float:
        """``evaluator.workload_cost(queries, config)``, incrementally."""
        _SCORED.inc()
        return weighted_sum(self._items, self.costs(config))

    def rebase(self, config: Collection[Index]) -> None:
        """Make *config* the base later moves are diffed against."""
        self._costs = self.costs(config)
        self._base_keys = frozenset(idx.key for idx in config)


_EMPTY: frozenset = frozenset()
