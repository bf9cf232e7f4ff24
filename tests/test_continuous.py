"""Continuous tuning tests (Sec. II-B, VI-D)."""

from repro.catalog import Index
from repro.core import (
    ContinuousTuner,
    find_prefix_redundant_indexes,
    find_unused_indexes,
)
from repro.workload import Workload, WorkloadMonitor


def test_find_unused_indexes(indexed_db):
    w = Workload.from_sql(
        [("SELECT amount FROM orders WHERE created < 10000", 10.0)]
    )
    unused = find_unused_indexes(indexed_db, w)
    names = {i.name for i in unused}
    assert "idx_users_city_age" in names
    assert "idx_orders_created" not in names


def test_find_prefix_redundant(db):
    db.create_index(Index("orders", ("user_id",)))
    db.create_index(Index("orders", ("user_id", "status")))
    redundant = find_prefix_redundant_indexes(db)
    assert [i.name for i in redundant] == ["idx_orders_user_id"]


def test_tuner_cycle_creates_and_cleans(db):
    from repro.engine import ExecutionMetrics

    monitor = WorkloadMonitor()
    sql = "SELECT amount FROM orders WHERE created < 10000"
    for _ in range(50):
        monitor.record_execution(
            sql, ExecutionMetrics(rows_read=3000, rows_sent=30), 8.0
        )
    tuner = ContinuousTuner(db, budget_bytes=20 << 20, monitor=monitor)
    result = tuner.run_cycle()
    assert result.changed
    assert any("created" in i.columns for i in result.created)
    assert db.schema.indexes()
    assert tuner.history == [result]


def test_tuner_cycle_is_idempotent_when_tuned(db):
    from repro.engine import ExecutionMetrics

    monitor = WorkloadMonitor()
    sql = "SELECT amount FROM orders WHERE created < 10000"
    for _ in range(50):
        monitor.record_execution(
            sql, ExecutionMetrics(rows_read=3000, rows_sent=30), 8.0
        )
    tuner = ContinuousTuner(db, budget_bytes=20 << 20, monitor=monitor)
    first = tuner.run_cycle()
    created_names = {i.name for i in first.created}
    second = tuner.run_cycle()
    # Nothing new to create; existing useful indexes are kept.
    assert not second.created
    remaining = {i.name for i in db.schema.indexes()}
    assert created_names <= remaining


def test_tuner_drops_unused_after_workload_change(db):
    from repro.engine import ExecutionMetrics

    db.create_index(Index("users", ("score", "name")))
    monitor = WorkloadMonitor()
    sql = "SELECT amount FROM orders WHERE created < 10000"
    for _ in range(50):
        monitor.record_execution(
            sql, ExecutionMetrics(rows_read=3000, rows_sent=30), 8.0
        )
    tuner = ContinuousTuner(db, budget_bytes=20 << 20, monitor=monitor)
    result = tuner.run_cycle()
    dropped = {i.name for i in result.dropped}
    assert "idx_users_score_name" in dropped


def test_tuner_respects_remaining_budget(db):
    from repro.engine import ExecutionMetrics

    monitor = WorkloadMonitor()
    sql = "SELECT amount FROM orders WHERE created < 10000"
    for _ in range(50):
        monitor.record_execution(
            sql, ExecutionMetrics(rows_read=3000, rows_sent=30), 8.0
        )
    tiny = ContinuousTuner(db, budget_bytes=1, monitor=monitor)
    result = tiny.run_cycle()
    assert not result.created


def test_tuner_noop_on_empty_monitor(db):
    tuner = ContinuousTuner(db, budget_bytes=20 << 20)
    result = tuner.run_cycle()
    assert not result.changed


def test_tuner_keeps_every_config_field(db):
    """The tuner runs the advisor with the config it was given, unchanged."""
    from dataclasses import fields

    from repro.core import AimConfig, CoveringPolicy

    config = AimConfig(
        join_parameter=3,
        max_index_width=4,
        merge_orders=False,
        use_dataless_guidance=False,
        ipp_relaxation_rows=5_000.0,
        covering=CoveringPolicy(seek_threshold=7.0),
        covering_phase=False,
        covering_weight_fraction=0.5,
        lambda2=0.2,
        lambda3=0.3,
        validate=False,
    )
    defaults = AimConfig()
    # Every field differs from its default, so a field the tuner dropped
    # would come back as its default and show.
    assert [
        f.name for f in fields(AimConfig)
        if getattr(config, f.name) == getattr(defaults, f.name)
    ] == []
    tuner = ContinuousTuner(db, budget_bytes=20 << 20, config=config)
    assert tuner.config == config
