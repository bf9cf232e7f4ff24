"""The executor's plan cache: a hit must equal a fresh plan bit for bit.

The executor keys each cached plan on the statement's normalized text and
the planner's literal-derived inputs (see ``Executor._plan_key``) and
holds plans of one ``Database.plan_version``.  These tests compare every
served plan with a fresh ``Optimizer.explain`` over the tune_serve
statement stream, check that each input in the version invalidates a plan
in the executor and in a live what-if evaluator, the LRU bound, and that
an UPDATE is analyzed once.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.executor.executor as executor_module
import repro.optimizer.optimizer as optimizer_module
from repro.catalog import Index
from repro.core import ContinuousTuner
from repro.executor import Executor
from repro.optimizer import CostEvaluator, Optimizer, OptimizerSwitches
from repro.optimizer.optimizer import locator_select
from repro.qa.oracles import _plan_fields
from repro.sqlparser import ast, parse
from repro.workload import MonitoredExecutor
from repro.workloads.tpch.datagen import load_tpch

from .conftest import serve_inputs

NO_PUSHDOWN = OptimizerSwitches(index_condition_pushdown=False)


def _assert_fresh(db, sql, result) -> None:
    """*result*'s plan equals a fresh plan of *sql* (its locator for DML)."""
    stmt = parse(sql)
    select = stmt if isinstance(stmt, ast.Select) else locator_select(stmt)
    fresh = Optimizer(db).explain(select)
    assert result.plan.info.stmt == select, sql
    assert _plan_fields(result.plan) == _plan_fields(fresh), sql


@pytest.mark.parametrize("seed", [1, 2])
def test_served_plans_equal_fresh_plans_over_tune_serve(seed):
    """Four windows of the stream (both phases) with a tuning cycle after
    each, so the cache also crosses index creations and drops."""
    inputs = serve_inputs()
    db = load_tpch(inputs.SCALE_FACTOR, seed)
    stream = inputs.ServeStream(seed)
    served = MonitoredExecutor(db)
    tuner = ContinuousTuner(db, budget_bytes=8 << 20, monitor=served.monitor)
    planned = 0
    for window in range(4):
        for statement in stream.window(window % 2, 100):
            result = served.execute(statement.sql)
            if result.plan is not None:
                planned += 1
                _assert_fresh(db, statement.sql, result)
        tuner.run_cycle()
        served.monitor.clear()
    assert tuner.history and any(cycle.created for cycle in tuner.history)
    # Most point statements reuse a plan: the optimizer ran for fewer
    # than half of the planned statements.
    assert served.executor.optimizer.calls < planned / 2


@pytest.fixture()
def executor(db):
    return Executor(db)


def _calls_for(executor, sql) -> int:
    """Optimizer calls *executor* makes serving *sql* (0 on a cache hit)."""
    before = executor.optimizer.calls
    result = executor.execute(sql)
    _assert_fresh(executor.db, sql, result)
    return executor.optimizer.calls - before


def test_same_shape_and_selectivity_hits(executor):
    assert _calls_for(executor, "SELECT name FROM users WHERE city = 'c1'") == 1
    assert _calls_for(executor, "SELECT name FROM users WHERE city = 'c1'") == 0
    assert _calls_for(executor, "UPDATE users SET age = 1 WHERE id = 3") == 1
    assert _calls_for(executor, "UPDATE users SET age = 2 WHERE id = 4") == 0
    # LIMIT is erased by normalization but read by the planner.
    assert _calls_for(executor, "SELECT name FROM users WHERE city = 'c1' LIMIT 3") == 1
    assert _calls_for(executor, "SELECT name FROM users WHERE city = 'c1' LIMIT 4") == 1
    # Shapes with a range filter always plan.
    assert _calls_for(executor, "SELECT name FROM users WHERE age > 30") == 1
    assert _calls_for(executor, "SELECT name FROM users WHERE age > 30") == 1
    # An equality join is keyed by every binding's filter selectivities.
    join = ("SELECT u.name, o.amount FROM users u, orders o "
            "WHERE u.id = o.user_id AND u.city = 'c1'")
    assert _calls_for(executor, join) == 1
    assert _calls_for(executor, join) == 0


@pytest.mark.parametrize("where", [
    "u.id = o.user_id AND o.amount > 5",
    "u.id = o.user_id AND u.city = 'c1' AND o.created BETWEEN 1 AND 9",
    "u.id = o.user_id AND (u.age = 3 OR o.status = 'new')",
    "u.id = o.user_id AND o.amount + u.age = 9",
])
def test_join_with_range_filter_or_complex_conjunct_is_not_cached(executor, where):
    stmt = parse(f"SELECT u.name FROM users u, orders o WHERE {where}")
    info = executor.optimizer.analyze(stmt)
    assert executor._plan_key(info, stmt, None) is None


def test_join_hits_equal_fresh_plans_over_tune_serve_join_templates():
    """Both tune_serve join templates served through one executor: every
    plan equals a fresh one; the equality join (customer -> orders)
    mostly hits, the one with a range filter (supplier -> lineitem) plans
    every statement."""
    inputs = serve_inputs()
    db = load_tpch(inputs.SCALE_FACTOR, 1)
    executor = Executor(db)
    stream = inputs.ServeStream(1)
    calls: dict[str, list[int]] = {}
    for window in range(6):
        for statement in stream.window(window % 2, 100):
            if "join" in statement.template:
                calls.setdefault(statement.template, []).append(
                    _calls_for(executor, statement.sql)
                )
    equality, ranged = calls["a_join_cust_orders"], calls["b_join_supp_lines"]
    assert len(equality) > 50 and sum(equality) < len(equality) / 10
    assert len(ranged) > 50 and set(ranged) == {1}


def _executor_calls(db):
    """Serving through an executor: optimizer calls per statement."""
    executor = Executor(db)
    return lambda sql: _calls_for(executor, sql)


def _whatif_calls(db):
    """Costing through a live what-if evaluator: optimizer calls per
    statement, each cost checked against a fresh optimizer's."""
    evaluator = CostEvaluator(db, include_schema_indexes=True)

    def calls_for(sql) -> int:
        before = evaluator.optimizer_calls
        cost = evaluator.cost(sql)
        assert cost.hex() == Optimizer(db).cost(sql).hex(), sql
        return evaluator.optimizer_calls - before

    return calls_for


PLANNER_INPUT_CHANGES = [
    ("create_index", lambda db: db.create_index(Index("users", ("city",)))),
    ("drop_index", lambda db: db.drop_index("idx_users_city_age")),
    ("set_table", lambda db: db.analyze(["users"])),
    ("switches", lambda db: setattr(db, "switches", NO_PUSHDOWN)),
    ("params", lambda db: setattr(
        db, "params", replace(db.params, random_page_cost=9.0))),
]


@pytest.mark.parametrize("planner, change", [
    pytest.param(planner, change, id=prefix + name)
    for planner, prefix in ((_executor_calls, ""), (_whatif_calls, "whatif-"))
    for name, change in PLANNER_INPUT_CHANGES
])
def test_planner_input_changes_invalidate(indexed_db, planner, change):
    calls_for = planner(indexed_db)
    sql = "SELECT name, age FROM users WHERE city = 'c1'"
    assert calls_for(sql) == 1
    assert calls_for(sql) == 0
    change(indexed_db)
    assert calls_for(sql) == 1
    assert calls_for(sql) == 0


def test_cache_is_bounded_lru(db, monkeypatch):
    monkeypatch.setattr(executor_module, "PLAN_CACHE_SIZE", 2)
    executor = Executor(db)
    shapes = [
        "SELECT name FROM users WHERE id = 1",
        "SELECT age FROM users WHERE id = 1",
        "SELECT city FROM users WHERE id = 1",
    ]
    for sql in shapes:
        assert _calls_for(executor, sql) == 1
    assert len(executor._plans) == 2
    assert _calls_for(executor, shapes[2]) == 0
    assert _calls_for(executor, shapes[0]) == 1       # evicted first


def test_update_is_analyzed_once(db, monkeypatch):
    calls = []
    analyze_query = optimizer_module.analyze_query

    def spy(stmt, schema):
        calls.append(type(stmt).__name__)
        return analyze_query(stmt, schema)

    monkeypatch.setattr(optimizer_module, "analyze_query", spy)
    executor = Executor(db)
    result = executor.execute("UPDATE users SET age = age + 1 WHERE city = 'c1'")
    assert result.rowcount > 0
    assert calls == ["Select"]      # the locator; SET compiles against it


def test_clone_evaluator_follows_settings_changed_on_its_source(db):
    """A default evaluator plans on a stats clone of *db*; a later change
    of *db*'s cost parameters or switches reaches it as it reaches a
    fresh evaluator."""
    evaluator = CostEvaluator(db)
    reads = [
        ("SELECT amount FROM orders WHERE user_id = 7", [Index("orders", ("user_id",))]),
        ("SELECT name FROM users WHERE age = 30", [Index("users", ("city", "age"))]),
    ]

    def costs(e):
        return [e.cost(sql, config) for sql, config in reads]

    before = costs(evaluator)
    assert [round(c, 2) for c in before] == [16.24, 58.2]
    db.switches = replace(db.switches, skip_scan=True)
    skipping = costs(evaluator)
    assert [round(c, 2) for c in skipping] == [16.24, 48.12]
    assert skipping == costs(CostEvaluator(db))
    db.params = replace(db.params, random_page_cost=9.0)
    repriced = costs(evaluator)
    assert round(repriced[0], 2) == 64.26
    assert repriced == costs(CostEvaluator(db))
