"""Workload, monitor and representative selection tests (Sec. III-C)."""

import pytest

from repro.engine import ExecutionMetrics
from repro.workload import (
    MonitoredExecutor,
    QueryStatistics,
    SelectionPolicy,
    Workload,
    WorkloadMonitor,
    WorkloadQuery,
    select_representative_workload,
)


def test_workload_from_sql_with_weights():
    w = Workload.from_sql([("SELECT a FROM t", 5.0), "SELECT b FROM t"])
    assert w.queries[0].weight == 5.0
    assert w.queries[1].weight == 1.0
    assert w.total_weight == 6.0
    assert len(w) == 2


def test_workload_query_is_dml():
    assert WorkloadQuery("INSERT INTO t (a) VALUES (1)").is_dml
    assert not WorkloadQuery("SELECT a FROM t").is_dml


def test_query_statistics_ddr_and_benefit():
    """Eq. 5: B = (1 - ddr) * cpu_avg with ddr = sent/read."""
    stats = QueryStatistics("q")
    stats.record(cpu=10.0, rows_read=1000, rows_sent=100)
    assert stats.ddr_avg == pytest.approx(0.1)
    assert stats.cpu_avg == pytest.approx(10.0)
    assert stats.expected_benefit == pytest.approx(0.9 * 10.0)


def test_discarded_data_ratio_definition():
    """Paper Sec. III-A2: ddr = data sent / data read, clamped to [0, 1]."""
    assert QueryStatistics("q").ddr_avg == 1.0
    clamped = QueryStatistics("q")
    clamped.record(cpu=1.0, rows_read=10, rows_sent=100)
    assert clamped.ddr_avg == 1.0


def test_efficient_query_has_low_benefit():
    stats = QueryStatistics("q")
    stats.record(cpu=10.0, rows_read=100, rows_sent=100)
    assert stats.expected_benefit == pytest.approx(0.0)


def test_statistics_merge_across_replicas():
    a = QueryStatistics("q", executions=2, total_cpu=10, rows_read=100, rows_sent=10)
    b = QueryStatistics("q", executions=3, total_cpu=20, rows_read=200, rows_sent=20)
    a.merge(b)
    assert a.executions == 5
    assert a.total_cpu == 30
    with pytest.raises(ValueError):
        a.merge(QueryStatistics("other"))


def test_monitor_groups_by_normalized_sql():
    monitor = WorkloadMonitor()
    m = ExecutionMetrics(rows_read=100, rows_sent=10)
    monitor.record_execution("SELECT a FROM t WHERE x = 1", m, 1.0)
    monitor.record_execution("SELECT a FROM t WHERE x = 2", m, 3.0)
    assert len(monitor.stats) == 1
    entry = next(iter(monitor.stats.values()))
    assert entry.executions == 2
    assert entry.cpu_avg == pytest.approx(2.0)
    assert entry.example_sql == "SELECT a FROM t WHERE x = 1"


def test_monitor_top_by_benefit_ordering():
    monitor = WorkloadMonitor()
    wasteful = ExecutionMetrics(rows_read=1000, rows_sent=1)
    efficient = ExecutionMetrics(rows_read=10, rows_sent=10)
    monitor.record_execution("SELECT a FROM t WHERE x = 1", wasteful, 10.0)
    monitor.record_execution("SELECT b FROM t WHERE y = 1", efficient, 10.0)
    top = monitor.top_by_benefit()
    assert "x" in top[0].normalized_sql


def test_monitor_merge():
    m1, m2 = WorkloadMonitor(), WorkloadMonitor()
    metrics = ExecutionMetrics(rows_read=10, rows_sent=1)
    m1.record_execution("SELECT a FROM t WHERE x = 1", metrics, 1.0)
    m2.record_execution("SELECT a FROM t WHERE x = 9", metrics, 1.0)
    m2.record_execution("SELECT b FROM u WHERE y = 1", metrics, 1.0)
    m1.merge(m2)
    assert len(m1.stats) == 2
    assert next(
        s for s in m1.stats.values() if "t" in s.normalized_sql
    ).executions == 2


def test_selection_frequency_threshold():
    monitor = WorkloadMonitor()
    m = ExecutionMetrics(rows_read=1000, rows_sent=1)
    monitor.record_execution("SELECT a FROM t WHERE x = 1", m, 100.0)  # once
    policy = SelectionPolicy(min_executions=2, min_benefit=0.01)
    assert len(select_representative_workload(monitor, policy)) == 0


def test_selection_benefit_threshold():
    monitor = WorkloadMonitor()
    cheap = ExecutionMetrics(rows_read=1000, rows_sent=1)
    for _ in range(10):
        monitor.record_execution("SELECT a FROM t WHERE x = 1", cheap, 0.0001)
    policy = SelectionPolicy(min_executions=2, min_benefit=0.05)
    assert len(select_representative_workload(monitor, policy)) == 0


def test_selection_weights_are_execution_counts():
    monitor = WorkloadMonitor()
    m = ExecutionMetrics(rows_read=1000, rows_sent=1)
    for _ in range(7):
        monitor.record_execution("SELECT a FROM t WHERE x = 1", m, 10.0)
    workload = select_representative_workload(
        monitor, SelectionPolicy(min_executions=2, min_benefit=0.01)
    )
    assert workload.queries[0].weight == 7.0


def test_selection_carries_dml_with_zero_benefit_role():
    monitor = WorkloadMonitor()
    m = ExecutionMetrics(rows_read=1000, rows_sent=1)
    for _ in range(5):
        monitor.record_execution("SELECT a FROM t WHERE x = 1", m, 10.0)
        monitor.record_execution(
            "UPDATE t SET a = 1 WHERE x = 2", ExecutionMetrics(), 0.5
        )
    workload = select_representative_workload(
        monitor, SelectionPolicy(min_executions=2, min_benefit=0.01)
    )
    assert any(q.is_dml for q in workload)


def test_monitored_executor_records(db):
    monitored = MonitoredExecutor(db)
    monitored.execute("SELECT name FROM users WHERE city = 'c1'")
    assert len(monitored.monitor.stats) == 1
    entry = next(iter(monitored.monitor.stats.values()))
    assert entry.rows_read == 500
    assert entry.total_cpu > 0


def test_monitored_executor_parses_each_statement_once(db, monkeypatch):
    """The executor and the monitor share one parse; the monitor's key and
    example text are the same as when it parses the text itself."""
    import repro.executor.executor as executor_module
    import repro.sqlparser.normalizer as normalizer_module
    from repro.sqlparser import normalize_sql

    statements = [
        "SELECT name FROM users WHERE city = 'c1' AND age IN (20, 30)",
        "UPDATE users SET score = 7 WHERE id = 4",
        "DELETE FROM orders WHERE oid = 12",
        "INSERT INTO users (id, age, city, name, score) VALUES (999, 1, 'c0', 'z', NULL)",
    ]
    expected = {normalize_sql(sql): sql for sql in statements}

    def no_second_parse(sql):
        raise AssertionError(f"parsed again: {sql}")

    monkeypatch.setattr(executor_module, "parse", no_second_parse)
    monkeypatch.setattr(normalizer_module, "parse", no_second_parse)
    monitored = MonitoredExecutor(db)
    for sql in statements:
        monitored.execute(sql)
    assert {key: entry.example_sql for key, entry in monitored.monitor.stats.items()} \
        == expected
