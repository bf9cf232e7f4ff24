"""Optimizer facade and what-if evaluator tests."""

import pytest

from repro.catalog import Index
from repro.optimizer import CostEvaluator, Optimizer
from repro.optimizer.cost_model import affected_rows, index_is_affected
from repro.sqlparser import parse


def test_explain_counts_calls(db):
    opt = Optimizer(db)
    opt.explain("SELECT name FROM users")
    opt.explain("SELECT name FROM users")
    assert opt.calls == 2


def test_dml_cost_includes_maintenance(db):
    opt = Optimizer(db)
    no_index = opt.explain("UPDATE users SET city = 'x' WHERE id = 1")
    db.create_index(Index("users", ("city",)))
    with_index = opt.explain("UPDATE users SET city = 'x' WHERE id = 1")
    assert with_index.maintenance_cost > no_index.maintenance_cost
    assert with_index.total_cost > no_index.total_cost


def test_update_untouched_index_free(db):
    db.create_index(Index("users", ("age",)))
    opt = Optimizer(db)
    p = opt.explain("UPDATE users SET name = 'x' WHERE id = 1")
    assert p.maintenance_cost == 0


def test_insert_and_delete_affect_every_index():
    insert = parse("INSERT INTO users (id) VALUES (1)")
    delete = parse("DELETE FROM users WHERE id = 1")
    update = parse("UPDATE users SET name = 'x' WHERE id = 1")
    idx = Index("users", ("age",))
    assert index_is_affected(insert, idx)
    assert index_is_affected(delete, idx)
    assert not index_is_affected(update, idx)
    assert not index_is_affected(insert, Index("orders", ("amount",)))


def test_affected_rows_estimates(db):
    opt = Optimizer(db)
    info = opt.analyze("DELETE FROM orders WHERE status = 'paid'")
    rows = affected_rows(info, db.schema, db.stats)
    assert 500 < rows < 2000   # ~1/3 of 3000


def test_cost_evaluator_excludes_schema_indexes_by_default(indexed_db):
    ev = CostEvaluator(indexed_db)
    p = ev.plan("SELECT name FROM users WHERE city = 'c1'")
    assert not p.used_index_keys


def test_cost_evaluator_include_schema_indexes(indexed_db):
    ev = CostEvaluator(indexed_db, include_schema_indexes=True)
    p = ev.plan("SELECT name FROM users WHERE city = 'c1' AND age > 70")
    assert Index("users", ("city", "age")).key in p.used_index_keys


def test_cost_evaluator_caches_plans(db):
    ev = CostEvaluator(db)
    sql = "SELECT name FROM users WHERE city = 'c1'"
    ev.cost(sql)
    calls = ev.optimizer_calls
    ev.cost(sql)
    assert ev.optimizer_calls == calls
    assert ev.cache_hits >= 1


@pytest.mark.parametrize(
    "metric, attribute",
    [("whatif.cache_hits", "cache_hits"), ("optimizer.calls", "optimizer_calls")],
    ids=["whatif.cache_hits", "optimizer.calls"],
)
def test_cache_hits_metric_tracks_instance_counter(db, metric, attribute):
    # Registry counters must move in lockstep with the evaluator's
    # instance counters even after the process registry is swapped
    # (handles bound to the old registry would keep counting there).
    from repro.obs import MetricsRegistry, get_registry, set_registry

    previous = get_registry()
    fresh = MetricsRegistry()
    set_registry(fresh)
    try:
        ev = CostEvaluator(db)
        sql = "SELECT name FROM users WHERE city = 'c1'"
        ev.cost(sql)
        ev.cost(sql)
        ev.cost(sql)
        assert ev.cache_hits == 2
        children = fresh.counter(metric).children().values()
        assert sum(child.value for child in children) == getattr(ev, attribute)
    finally:
        set_registry(previous)


def test_cache_key_projects_config_onto_query_tables(db):
    ev = CostEvaluator(db)
    sql = "SELECT name FROM users WHERE city = 'c1'"
    orders_idx = Index("orders", ("status",), dataless=True)
    ev.cost(sql)
    calls = ev.optimizer_calls
    # An index on an unrelated table cannot change the plan: cache hit.
    ev.cost(sql, [orders_idx])
    assert ev.optimizer_calls == calls


def test_workload_cost_weights(db):
    ev = CostEvaluator(db)
    sql = "SELECT name FROM users WHERE city = 'c1'"
    single = ev.workload_cost([(sql, 1.0)])
    double = ev.workload_cost([(sql, 2.0)])
    assert double == pytest.approx(2 * single)


def test_used_subset(db):
    ev = CostEvaluator(db)
    useful = Index("users", ("city", "name"), dataless=True)
    useless = Index("users", ("score",), dataless=True)
    used = ev.plan(
        "SELECT name FROM users WHERE city = 'c1'", [useful, useless]
    ).used_index_keys
    assert useful.key in used
    assert useless.key not in used


def test_more_indexes_never_hurt_reads(db):
    """Adding access paths can only keep or lower SELECT plan cost."""
    ev = CostEvaluator(db)
    sql = "SELECT u.name, o.amount FROM users u, orders o WHERE u.id = o.user_id AND o.status = 'paid'"
    base = ev.cost(sql)
    config = [
        Index("orders", ("status",), dataless=True),
        Index("orders", ("user_id", "status"), dataless=True),
        Index("users", ("city",), dataless=True),
    ]
    assert ev.cost(sql, config) <= base + 1e-9
