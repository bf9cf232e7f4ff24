"""AimAdvisor end-to-end tests (Algorithm 1)."""

import pytest

from repro.catalog import Index
from repro.core import MODE_NON_COVERING, AimAdvisor, AimConfig
from repro.optimizer import CostEvaluator
from repro.workload import Workload, WorkloadMonitor


def simple_workload():
    return Workload.from_sql([
        ("SELECT amount FROM orders WHERE created < 10000", 50.0),
        ("SELECT name FROM users WHERE city = 'c3' AND age > 75", 30.0),
        ("SELECT u.name, o.amount FROM users u, orders o "
         "WHERE u.id = o.user_id AND o.status = 'paid' AND u.city = 'c1'", 20.0),
    ])


def test_recommendation_improves_workload(db):
    advisor = AimAdvisor(db)
    rec = advisor.recommend(simple_workload(), budget_bytes=10 << 20)
    assert rec.created
    assert rec.cost_after < rec.cost_before
    assert rec.improvement > 0.05
    assert rec.optimizer_calls > 0
    assert rec.runtime_seconds >= 0


def test_recommended_indexes_are_materialized_flavor(db):
    rec = AimAdvisor(db).recommend(simple_workload(), budget_bytes=10 << 20)
    assert all(not idx.dataless for idx in rec.indexes)


def test_budget_respected(db):
    rec = AimAdvisor(db).recommend(simple_workload(), budget_bytes=10 << 20)
    assert rec.total_size_bytes <= 10 << 20


def test_tiny_budget_selects_nothing_oversized(db):
    rec = AimAdvisor(db).recommend(simple_workload(), budget_bytes=100)
    assert rec.total_size_bytes <= 100


def test_zero_budget_empty_recommendation(db):
    rec = AimAdvisor(db).recommend(simple_workload(), budget_bytes=0)
    assert rec.created == []
    assert rec.cost_after == rec.cost_before


def test_explanations_are_metrics_driven(db):
    rec = AimAdvisor(db).recommend(simple_workload(), budget_bytes=10 << 20)
    text = rec.summary()
    assert "CREATE INDEX" in text
    assert "expected gain" in text
    assert "benefits:" in text


def test_monitor_cpu_basis_used(db):
    """With monitor statistics, measured cpu_avg drives Eq. 7."""
    monitor = WorkloadMonitor()
    from repro.engine import ExecutionMetrics

    sql = "SELECT amount FROM orders WHERE created < 10000"
    metrics = ExecutionMetrics(rows_read=3000, rows_sent=30)
    for _ in range(10):
        monitor.record_execution(sql, metrics, cpu_seconds=123.0)
    advisor = AimAdvisor(db, monitor=monitor)
    rec = advisor.recommend(
        Workload.from_sql([(sql, 10.0)]), budget_bytes=10 << 20
    )
    assert rec.created
    # Benefit derives from cpu_avg 123, weighted by 10 executions.
    assert rec.created[0].benefit == pytest.approx(10 * 123.0, rel=0.35)


def test_recommend_from_monitor_selects_representative(db):
    from repro.engine import ExecutionMetrics
    from repro.workload import SelectionPolicy

    monitor = WorkloadMonitor()
    hot = "SELECT amount FROM orders WHERE created < 10000"
    for _ in range(100):
        monitor.record_execution(
            hot, ExecutionMetrics(rows_read=3000, rows_sent=30), 5.0
        )
    # A spurious ad hoc query: one execution only.
    monitor.record_execution(
        "SELECT name FROM users WHERE age > 1",
        ExecutionMetrics(rows_read=500, rows_sent=499),
        5.0,
    )
    advisor = AimAdvisor(db, monitor=monitor)
    rec = advisor.recommend_from_monitor(
        budget_bytes=10 << 20, policy=SelectionPolicy(min_executions=2)
    )
    assert any("created" in idx.columns for idx in rec.indexes)


def test_join_parameter_zero_limits_exploration(db):
    narrow = AimAdvisor(db, AimConfig(join_parameter=0))
    wide = AimAdvisor(db, AimConfig(join_parameter=2))
    w = simple_workload()
    rec_narrow = narrow.recommend(w, 50 << 20)
    rec_wide = wide.recommend(w, 50 << 20)
    # j=0 never explores join-column candidates on the join query.
    join_indexes_narrow = [
        i for i in rec_narrow.indexes if "user_id" in i.columns
    ]
    assert rec_wide.optimizer_calls >= rec_narrow.optimizer_calls or not join_indexes_narrow


def test_width_cap_config(db):
    advisor = AimAdvisor(db, AimConfig(max_index_width=1))
    rec = advisor.recommend(simple_workload(), 50 << 20)
    assert all(idx.width <= 1 for idx in rec.indexes)


def test_covering_phase_produces_covering_indexes(db):
    config = AimConfig(
        seek_threshold=5.0,
        covering_weight_fraction=0.0,
    )
    rec = AimAdvisor(db, config).recommend(simple_workload(), 50 << 20)
    phases = {r.phase for r in rec.created}
    assert "covering" in phases


def test_covering_phase_skips_queries_below_the_weight_fraction(db):
    """Only a query carrying at least covering_weight_fraction of the
    workload weight can get a covering index."""
    def covered(fraction: float) -> set[str]:
        config = AimConfig(
            seek_threshold=5.0,
            covering_weight_fraction=fraction,
        )
        rec = AimAdvisor(db, config).recommend(simple_workload(), 50 << 20)
        return {
            name
            for r in rec.created if r.phase == "covering"
            for name, _gain in r.benefiting_queries
        }

    # q3, the join query, carries 20 of the workload's 100 weight units.
    assert covered(0.19) == {"q1", "q2", "q3"}
    assert covered(0.21) == {"q1", "q2"}


def test_eq3_gate_empty_when_no_improvement(db):
    # A workload with nothing to optimize: PK point lookups.
    w = Workload.from_sql([("SELECT name FROM users WHERE id = 5", 10.0)])
    rec = AimAdvisor(db).recommend(w, 50 << 20)
    assert rec.created == []


def test_live_evaluator_mode(indexed_db):
    """A live evaluator makes gains marginal over existing indexes."""
    w = Workload.from_sql(
        [("SELECT amount FROM orders WHERE created < 10000", 10.0)]
    )
    advisor = AimAdvisor(indexed_db)
    live = CostEvaluator(indexed_db, include_schema_indexes=True)
    rec = advisor.recommend(w, 50 << 20, evaluator=live)
    # idx_orders_created already exists: no marginal gain to find.
    assert all("created" != idx.columns[0] for idx in rec.indexes)
    # A bare advisor ignores it and finds the gain again.
    bare = advisor.recommend(w, 50 << 20)
    assert any("created" == idx.columns[0] for idx in bare.indexes)


def test_ranked_order_is_by_utility(db):
    rec = AimAdvisor(db).recommend(simple_workload(), 50 << 20)
    utilities = [r.utility for r in rec.created]
    assert utilities == sorted(utilities, reverse=True)


def _name_collision_db():
    """``t(id, a, a_b, b_c, c)``: ``(a_b, c)`` and ``(a, b_c)`` are both
    ``idx_t_a_b_c``."""
    import random

    from repro.catalog import Column, INT, Table
    from repro.engine import Database

    rng = random.Random(3)
    db = Database.from_tables([Table(
        "t", [Column(name, INT) for name in ("id", "a", "a_b", "b_c", "c")], ("id",)
    )])
    db.load_rows("t", [
        {"id": i, "a": rng.randrange(5000), "a_b": rng.randrange(5000),
         "b_c": rng.randrange(1000), "c": rng.randrange(1000)}
        for i in range(5000)
    ])
    db.analyze()
    return db


def _name_collision_workload():
    return Workload.from_sql([
        ("SELECT id FROM t WHERE a_b = 1 AND c = 2", 10.0),
        ("SELECT id FROM t WHERE a = 1 AND b_c = 2", 1.0),
    ])


def test_indexes_sharing_a_name_reach_ranking_and_the_denser_wins():
    db = _name_collision_db()
    pair = {("t", ("a_b", "c"), False), ("t", ("a", "b_c"), False)}
    assert len({Index(t, c).name for t, c, _u in pair}) == 1
    advisor = AimAdvisor(db)
    evaluator = CostEvaluator(db)
    candidates = advisor._generator(evaluator).generate([
        (q.normalized_sql, evaluator.analyze(q.sql), MODE_NON_COVERING)
        for q in _name_collision_workload()
    ])
    assert pair <= {idx.key for idx in candidates.indexes}
    rec = advisor.recommend(_name_collision_workload(), 10 << 20)
    assert [idx.key for idx in rec.indexes] == [("t", ("a_b", "c"), False)]


def test_recommendation_skips_a_name_a_built_index_holds():
    db = _name_collision_db()
    db.create_index(Index("t", ("a", "b_c")))
    # The bare evaluator ignores the built index, so its key comes back;
    # the denser (a_b, c) would need the name it holds.
    rec = AimAdvisor(db).recommend(_name_collision_workload(), 10 << 20)
    assert [idx.key for idx in rec.indexes] == [("t", ("a", "b_c"), False)]
