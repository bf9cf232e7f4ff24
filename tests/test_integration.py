"""Cross-module integration tests: advisor decisions verified against
*measured* execution on stored data, plus full operational scenarios."""

import pytest

from repro.baselines import AimAlgorithm, ExtendAlgorithm
from repro.core import AimAdvisor, AimConfig, ContinuousTuner
from repro.engine import ExecutionMetrics
from repro.workload import (
    MonitoredExecutor,
    SelectionPolicy,
    Workload,
    WorkloadMonitor,
)


def measured_workload_cost(db, workload):
    """Actually execute every query and sum measured CPU seconds."""
    from repro.executor import Executor

    executor = Executor(db)
    total = 0.0
    for query in workload:
        result = executor.execute(query.sql)
        total += query.weight * result.metrics.cpu_seconds(db.params)
    return total


def test_bootstrap_recommendation_improves_measured_execution(db):
    """The headline loop: monitor -> recommend -> materialize -> faster."""
    workload = Workload.from_sql([
        ("SELECT amount FROM orders WHERE created < 10000", 20.0),
        ("SELECT u.name, o.amount FROM users u, orders o "
         "WHERE u.id = o.user_id AND o.status = 'paid' AND u.city = 'c1'", 10.0),
        ("SELECT created FROM orders ORDER BY created DESC LIMIT 10", 10.0),
    ])
    before = measured_workload_cost(db, workload)
    recommendation = AimAdvisor(db).recommend(workload, budget_bytes=20 << 20)
    assert recommendation.created
    for index in recommendation.indexes:
        db.create_index(index)
    after = measured_workload_cost(db, workload)
    assert after < before * 0.7


def test_monitor_driven_end_to_end(db):
    """Replay traffic through the monitored executor, tune from the
    monitor, verify the new indexes get used."""
    monitored = MonitoredExecutor(db)
    hot = "SELECT amount FROM orders WHERE created < {}"
    for i in range(20):
        monitored.execute(hot.format(5000 + i * 10))
    advisor = AimAdvisor(db, monitor=monitored.monitor)
    rec = advisor.recommend_from_monitor(
        budget_bytes=20 << 20,
        policy=SelectionPolicy(min_executions=2, min_benefit=0.001),
    )
    assert rec.created
    for index in rec.indexes:
        db.create_index(index)
    result = monitored.execute(hot.format(9000))
    assert result.plan.used_index_keys


def test_continuous_tuning_reacts_to_workload_shift(db):
    """Sec. VI-D: a new code push introduces an unindexed hot query; the
    next tuning cycle fixes it."""
    monitored = MonitoredExecutor(db)
    tuner = ContinuousTuner(
        db, budget_bytes=30 << 20, monitor=monitored.monitor,
        selection=SelectionPolicy(min_executions=2, min_benefit=0.001),
    )
    for i in range(10):
        monitored.execute(f"SELECT amount FROM orders WHERE created < {9000 + i}")
    first = tuner.run_cycle()
    assert first.changed

    # The shift: new endpoint filtering users by score.
    monitored.monitor.clear()
    for i in range(10):
        monitored.execute(f"SELECT name FROM users WHERE score = {50 + i % 3}")
    second = tuner.run_cycle()
    created = {i.name for i in second.created}
    assert any("score" in name for name in created)
    # And the query now uses it.
    result = monitored.execute("SELECT name FROM users WHERE score = 51")
    assert result.plan.used_index_keys


def test_estimated_improvements_track_measured_ones(db):
    """Cost-model validation: the optimizer's predicted improvement ratio
    for an index agrees in direction and rough magnitude with measured
    execution (keeps the simulator honest)."""
    from repro.catalog import Index
    from repro.executor import Executor
    from repro.optimizer import CostEvaluator

    sql = "SELECT amount FROM orders WHERE created < 10000"
    ev = CostEvaluator(db)
    est_before = ev.cost(sql)
    est_after = ev.cost(sql, [Index("orders", ("created", "amount"), dataless=True)])

    executor = Executor(db)
    measured_before = executor.execute(sql).metrics.cpu_seconds(db.params)
    db.create_index(Index("orders", ("created", "amount")))
    measured_after = executor.execute(sql).metrics.cpu_seconds(db.params)

    est_ratio = est_after / est_before
    measured_ratio = measured_after / measured_before
    assert measured_ratio < 0.5          # the index clearly helps for real
    assert est_ratio < 0.5               # ... and the model predicts that
    assert est_ratio == pytest.approx(measured_ratio, abs=0.35)


def test_aim_vs_greedy_on_join_workload(db):
    """Sec. VI-C's claim in miniature: on join-heavy workloads AIM's
    coordinated candidates match or beat one-column-at-a-time greedy."""
    workload = Workload.from_sql([
        ("SELECT u.name, o.amount FROM users u, orders o "
         "WHERE u.id = o.user_id AND o.status = 'paid' AND o.amount < 50 "
         "AND u.city = 'c2'", 10.0),
        ("SELECT u.name, o.created FROM users u, orders o "
         "WHERE u.id = o.user_id AND o.created < 40000 AND u.age > 70", 10.0),
    ])
    aim = AimAlgorithm(db).select(workload, 20 << 20)
    greedy = ExtendAlgorithm(db).select(workload, 20 << 20)
    # The paper's claim is *comparable* quality at a fraction of the
    # optimizer calls (AIM trades solution granularity for convergence).
    assert aim.cost_after <= greedy.cost_after * 1.5
    assert aim.optimizer_calls < greedy.optimizer_calls / 3


def test_no_regression_guarantee_under_validation(db):
    """Every SELECT's estimated cost under the recommendation stays within
    (1 + λ3) of its baseline (Eq. 4)."""
    from repro.optimizer import CostEvaluator

    workload = Workload.from_sql([
        ("SELECT amount FROM orders WHERE created < 10000", 20.0),
        ("SELECT name FROM users WHERE city = 'c3' AND age > 75", 10.0),
        ("UPDATE orders SET amount = 5 WHERE oid = 3", 100.0),
    ])
    config = AimConfig(lambda3=0.1)
    rec = AimAdvisor(db, config).recommend(workload, 20 << 20)
    ev = CostEvaluator(db)
    for query in workload:
        if query.is_dml:
            continue
        base = ev.cost(query.sql)
        with_rec = ev.cost(query.sql, rec.indexes)
        assert with_rec <= base * 1.1 + 1e-9
