"""What-if cache equivalence: the caches must never change an answer.

Relevance pruning, the exact LRU, the canonical subset tier and the
per-statement planning memo are pure optimizations: every cost and every
used-index subset the evaluator returns must be bit-identical to an
uncached reference -- a plain :class:`Optimizer` on a stats clone with its
secondary indexes dropped, planning each request from scratch, which
keeps the reference independent of the evaluator's own path.  These
tests drive the evaluator through a 200-case ``repro.qa`` corpus and
through full advisor runs.
"""

from __future__ import annotations

import gc
import random
from dataclasses import replace

import pytest

from repro.baselines import ALL_ALGORITHMS
from repro.baselines.cost_eval import candidate_pool
from repro.catalog import INT, Column, Index, Table
from repro.engine import Database
from repro.optimizer import CostEvaluator, Optimizer, WorkloadCoster, analysis_cache
from repro.optimizer import join_order, optimizer as optimizer_module, what_if
from repro.qa.generator import generate_case
from repro.workload import Workload

CORPUS_CASES = 200
MEMO_CASES = 100
MAX_POOL = 6
COSTER_CASES = 60
COSTER_MOVES = 20

BUDGET = 20 << 20


def uncached_plan(db):
    """The reference: ``plan(sql, config)`` with no cache of any kind."""
    clone = db.stats_clone(name=f"{db.name}-uncached")
    for index in clone.schema.indexes():
        clone.schema.drop_index(index)
    optimizer = Optimizer(clone)
    return lambda sql, config: optimizer.explain(
        sql, extra_indexes=[i.as_dataless() for i in config]
    )


def _corpus_case(seed: int):
    case = generate_case(seed)
    db = case.database(with_storage=False)
    workload = Workload.from_sql([(sql, 1.0) for sql in case.statements])
    pool = candidate_pool(
        CostEvaluator(db), workload, max_width=2, with_permutations=False
    )
    return case, db, uncached_plan(db), pool[:MAX_POOL]


def test_corpus_matches_uncached_reference():
    """Cold, warm and canonical-hit costs and used-index subsets match the
    uncached reference bit for bit."""
    canonical_hits = 0
    for seed in range(CORPUS_CASES):
        case, db, reference, pool = _corpus_case(seed)
        evaluator = CostEvaluator(db)
        # Full pool first so subset lookups can hit the canonical tier.
        for config in (pool, pool[::2], []):
            for sql in case.statements:
                expected = reference(sql, config)
                assert evaluator.cost(sql, config) == expected.total_cost, (seed, sql)
                # Warm: the second identical request is a pure cache hit.
                assert evaluator.cost(sql, config) == expected.total_cost, (seed, sql)
                used = evaluator.plan(sql, config).used_index_keys
                assert used == expected.used_index_keys, (seed, sql)
        canonical_hits += evaluator.canonical_hits
    # The corpus actually exercises the canonical subset rule.
    assert canonical_hits > 0


def test_corpus_lru_eviction_invariance(monkeypatch):
    """A tiny LRU bound evicts constantly but never changes a cost."""
    monkeypatch.setattr(what_if, "PLAN_CACHE_SIZE", 2)
    total_evictions = 0
    for seed in range(0, CORPUS_CASES, 10):
        case, db, reference, pool = _corpus_case(seed)
        small = CostEvaluator(db)
        for _round in range(2):
            for config in (pool, pool[::2], []):
                for sql in case.statements:
                    assert (
                        small.cost(sql, config) == reference(sql, config).total_cost
                    ), (seed, sql)
        total_evictions += small.cache_evictions
    assert total_evictions > 0


def _random_move(rng: random.Random, base: list, pool: list) -> list:
    """*base* after one random greedy move: add, drop or replace an index."""
    keys = {idx.key for idx in base}
    outside = [idx for idx in pool if idx.key not in keys]
    kind = rng.choice(["add", "drop", "replace"])
    config = list(base)
    if kind in ("drop", "replace") and config:
        config.pop(rng.randrange(len(config)))
    if kind in ("add", "replace") and outside:
        config.append(rng.choice(outside))
    return config


def test_workload_coster_matches_workload_cost():
    """Random add/drop/replace moves over SELECT + DML workloads: the
    incremental coster equals whole-workload costing bit for bit, both on
    its own evaluator and on an independent one.  DML statements exercise
    the table-level listeners, SELECTs the column-level ones."""
    for seed in range(COSTER_CASES):
        case = generate_case(seed)
        db = case.database(with_storage=False)
        pairs = [(sql, 1.0 + i % 3 / 2) for i, sql in enumerate(case.statements)]
        evaluator = CostEvaluator(db)
        reference = CostEvaluator(db)
        pool = candidate_pool(evaluator, Workload.from_sql(pairs), max_width=2)
        rng = random.Random(seed)
        base: list = []
        coster = WorkloadCoster(evaluator, pairs, base)
        for _move in range(COSTER_MOVES):
            config = _random_move(rng, base, pool)
            cost = coster.cost(config)
            assert cost == reference.workload_cost(pairs, config), (seed, config)
            assert cost == evaluator.workload_cost(pairs, config), (seed, config)
            if rng.random() < 0.5:
                base = config
                coster.rebase(base)


def test_analysis_key_shared_by_clones_and_invalidated(db):
    """Schema clones share interned analyses, add_table invalidates, and
    clearing the cache leaves no stale entry or token behind."""
    sql = "SELECT name FROM users WHERE city = 'c1'"
    analysis_cache.clear_analysis_cache()
    info = analysis_cache.analyze_cached(db.schema, sql)
    clone = db.stats_clone()
    assert analysis_cache.schema_token(clone.schema) is analysis_cache.schema_token(db.schema)
    assert analysis_cache.analyze_cached(clone.schema, sql) is info
    assert analysis_cache.analysis_cache_info() == {"hits": 1, "misses": 1, "size": 1}

    clone.schema.add_table(Table("extra", [Column("id", INT)], ("id",)))
    assert analysis_cache.schema_token(clone.schema) is not analysis_cache.schema_token(db.schema)
    assert analysis_cache.analyze_cached(clone.schema, sql) is not info

    analysis_cache.clear_analysis_cache()
    assert analysis_cache.analysis_cache_info() == {"hits": 0, "misses": 0, "size": 0}
    assert analysis_cache.analyze_cached(db.schema, sql) is not info
    assert analysis_cache.analysis_cache_info()["misses"] == 1

    # Tokens live only as long as a schema or a cache key holds them.
    tokens = len(analysis_cache._tokens)
    del clone
    analysis_cache.clear_analysis_cache()
    gc.collect()
    assert len(analysis_cache._tokens) < tokens


def _workload() -> Workload:
    return Workload.from_sql([
        ("SELECT amount FROM orders WHERE created < 10000", 50.0),
        ("SELECT name FROM users WHERE city = 'c3' AND age > 75", 30.0),
        ("SELECT u.name, o.amount FROM users u, orders o "
         "WHERE u.id = o.user_id AND o.status = 'paid' AND u.city = 'c1'", 20.0),
        ("SELECT status, COUNT(*) FROM orders GROUP BY status", 5.0),
        ("UPDATE orders SET status = 'done' WHERE oid = 5", 2.0),
    ])


def test_evaluator_reuse_counts_per_run(db):
    """A reused evaluator keeps its caches; per-run call counts are deltas."""
    algo = ALL_ALGORITHMS["autoadmin"](db)
    evaluator = CostEvaluator(db, include_schema_indexes=False)
    cold = algo.select(_workload(), BUDGET, evaluator=evaluator)
    warm = algo.select(_workload(), BUDGET, evaluator=evaluator)
    assert [i.key for i in warm.indexes] == [i.key for i in cold.indexes]
    assert warm.cost_after == cold.cost_after
    assert cold.optimizer_calls > 0
    assert warm.optimizer_calls == 0


def _one_index_moves(pool: list) -> list[list]:
    """Configs that add the pool one index at a time, then drop it one at a
    time from the front: neighbours differ by exactly one index."""
    grow = [pool[:k] for k in range(len(pool) + 1)]
    shrink = [pool[k:] for k in range(1, len(pool) + 1)]
    return grow + shrink


def test_memo_matches_uncached_reference_one_index_moves():
    """Costs and used-index subsets stay bit-identical to the uncached
    reference while consecutive configs differ by one index: most requests
    are memo hits for every path except the one index that changed."""
    for seed in range(MEMO_CASES):
        case, db, reference, pool = _corpus_case(seed)
        evaluator = CostEvaluator(db)
        for config in _one_index_moves(pool):
            for sql in case.statements:
                expected = reference(sql, config)
                plan = evaluator.plan(sql, config)
                assert plan.total_cost == expected.total_cost, (seed, sql, config)
                assert plan.used_index_keys == expected.used_index_keys, (
                    seed, sql, config,
                )


_DDL_EXTRA = [Index("orders", ("created",), dataless=True)]


def _index_ddl(db):
    """Create three indexes on *db*, then drop them, one at a time;
    yields ``(action, index)`` before the first step and after each."""
    candidates = [
        Index("orders", ("user_id",)),
        Index("users", ("city", "age")),
        Index("orders", ("status",)),
    ]
    yield None, None
    for action, apply in (("create", db.create_index), ("drop", db.drop_index)):
        for index in candidates:
            apply(index)
            yield action, index


def test_schema_index_ddl_never_serves_a_dropped_index(db):
    """With the database's own indexes visible, create and drop indexes
    between requests: every answer matches a fresh optimizer on the current
    schema, and no plan reads an index that no longer exists."""
    evaluator = CostEvaluator(db, include_schema_indexes=True)
    statements = [q.sql for q in _workload()]
    for action, index in _index_ddl(db):
        live = {idx.key for idx in db.schema.indexes()}
        reference = Optimizer(db)
        for config in ([], _DDL_EXTRA):
            for sql in statements:
                expected = reference.explain(sql, extra_indexes=config)
                plan = evaluator.plan(sql, config)
                assert plan.total_cost == expected.total_cost, (action, index, sql)
                allowed = live | {idx.key for idx in config}
                assert plan.used_index_keys <= allowed, (action, index, sql)
    assert not db.schema.indexes()


def test_bare_evaluator_never_plans_with_a_built_index(db):
    """Without the database's own indexes, create and drop indexes between
    requests: every answer matches the uncached reference bit for bit, and
    no plan reads a built index."""
    evaluator = CostEvaluator(db)
    reference = uncached_plan(db)
    statements = [q.sql for q in _workload()]
    for action, index in _index_ddl(db):
        for config in ([], _DDL_EXTRA):
            for sql in statements:
                expected = reference(sql, config)
                plan = evaluator.plan(sql, config)
                assert plan.total_cost == expected.total_cost, (action, index, sql)
                assert plan.used_index_keys == expected.used_index_keys
                assert plan.used_index_keys <= {idx.key for idx in config}
    assert not db.schema.indexes()


@pytest.mark.parametrize(
    "include_schema_indexes", [False, True], ids=["clone", "live"]
)
def test_new_statistics_reach_the_evaluator(db, include_schema_indexes):
    """Statistics installed after an evaluator was built reach its cached
    plans, whether or not it sees *db*'s built indexes."""
    sql = "SELECT name FROM users WHERE city = 'c1'"
    evaluator = CostEvaluator(db, include_schema_indexes=include_schema_indexes)
    before = evaluator.cost(sql)
    users = db.stats.table("users")
    db.set_stats("users", replace(users, row_count=users.row_count * 10))
    after = evaluator.cost(sql)
    fresh = CostEvaluator(db, include_schema_indexes=include_schema_indexes)
    assert after == fresh.cost(sql)
    assert (before, after) == (62.0, 620.0)


def test_one_new_index_costs_one_path(db, monkeypatch):
    """Two explains whose configs differ by one index: the second costs
    only that index's paths -- no base path, no index seen before -- and a
    DML statement's row locator is analyzed once, not per explain."""
    costed: list[tuple] = []
    enumerate_paths = join_order.enumerate_paths

    def counting(ctx, indexes=(), base=True):
        costed.append((tuple(idx.key for idx in indexes), base))
        return enumerate_paths(ctx, indexes, base)

    monkeypatch.setattr(join_order, "enumerate_paths", counting)
    evaluator = CostEvaluator(db)
    sql = (
        "SELECT u.name, o.amount FROM users u, orders o "
        "WHERE u.id = o.user_id AND o.status = 'paid' AND u.city = 'c1'"
    )
    old = Index("users", ("city",), dataless=True)
    new = Index("orders", ("user_id",), dataless=True)
    evaluator.plan(sql, [old])
    assert any(keys == (old.key,) for keys, _base in costed)
    costed.clear()
    calls = evaluator.optimizer_calls
    evaluator.plan(sql, [old, new])
    assert evaluator.optimizer_calls == calls + 1
    assert costed and all(entry == ((new.key,), False) for entry in costed)

    analyzed: list = []
    analyze_query = optimizer_module.analyze_query

    def counting_analyze(stmt, schema):
        analyzed.append(stmt)
        return analyze_query(stmt, schema)

    monkeypatch.setattr(optimizer_module, "analyze_query", counting_analyze)
    update = "UPDATE orders SET status = 'done' WHERE user_id = 5"
    for config in ([], [new], [new, Index("orders", ("status",), dataless=True)]):
        evaluator.plan(update, config)
    assert len(analyzed) == 1


def test_colliding_index_names_are_both_planned():
    """``(a_b, c)`` and ``(a, b_c)`` on one table share the name
    ``idx_t_a_b_c``.  Adding the first to a config holding the second must
    not hide the second from the planner (the plan got 128x dearer when the
    planner deduplicated by name)."""
    columns = ("id", "a", "b_c", "a_b", "c")
    db = Database.from_tables([Table("t", [Column(c, INT) for c in columns], ("id",))])
    db.load_rows("t", [
        {"id": i, "a": i % 100, "b_c": i % 70, "a_b": i % 10, "c": i % 3}
        for i in range(5000)
    ])
    db.analyze()
    x = Index("t", ("a_b", "c"), dataless=True)
    y = Index("t", ("a", "b_c"), dataless=True)
    assert x.name == y.name and x.key != y.key
    sql = "SELECT id FROM t WHERE a = 5 AND b_c = 7 AND a_b > 3"
    evaluator = CostEvaluator(db)
    reference = uncached_plan(db)
    alone = evaluator.cost(sql, [y])
    assert alone < evaluator.cost(sql, [x])
    for config in ([x, y], [y, x]):
        assert evaluator.cost(sql, config) == alone
        assert reference(sql, config).total_cost == alone
        assert evaluator.plan(sql, config).used_index_keys == {y.key}
