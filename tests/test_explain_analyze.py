"""Tests for EXPLAIN ANALYZE: per-operator actuals and Q-error."""

from __future__ import annotations

import pytest

from repro.catalog import Index
from repro.executor import Executor, q_error, render_explain_analyze
from repro.obs import EventJournal, PlanEstimate, set_journal


@pytest.fixture()
def journal():
    fresh = EventJournal()
    previous = set_journal(fresh)
    yield fresh
    set_journal(previous)


def test_q_error_definition():
    assert q_error(10, 10) == 1.0
    assert q_error(100, 10) == pytest.approx(10.0)
    assert q_error(10, 100) == pytest.approx(10.0)
    # Zero sides clamp to one row: 0-vs-0 is perfect, 0-vs-N degrades to N.
    assert q_error(0, 0) == 1.0
    assert q_error(0, 50) == pytest.approx(50.0)
    assert q_error(50, 0) == pytest.approx(50.0)


def test_analyze_off_by_default(db, journal):
    result = Executor(db).execute("SELECT id FROM users WHERE age > 40")
    assert result.actual is None
    assert journal.events_of(PlanEstimate) == []


def test_actuals_match_execution_metrics(db, journal):
    """The ActualPlanStats tree must agree with ExecutionMetrics totals."""
    executor = Executor(db)
    sql = ("SELECT u.name, o.amount FROM users u, orders o "
           "WHERE u.id = o.user_id AND o.status = 'paid' AND u.city = 'c1'")
    result = executor.execute(sql, analyze=True)
    actual = result.actual
    assert actual is not None
    assert actual.label == "Result"

    # Root actual rows == rows the statement returned.
    assert actual.rows == result.rowcount

    nodes = [node for _depth, node in actual.walk()]
    assert sum(n.rows_scanned for n in nodes) == result.metrics.rows_read
    assert sum(n.pages_read for n in nodes) == (
        result.metrics.seq_pages + result.metrics.random_pages
    )
    # Wall time is inclusive: the root covers every child.
    assert all(actual.wall_seconds >= c.wall_seconds
               for c in actual.children)
    assert all(n.loops >= 1 for n in nodes if n.label != "Sort")


def test_index_scan_actuals_and_loops(db, journal):
    db.create_index(Index("orders", ("user_id",)))
    executor = Executor(db)
    sql = ("SELECT u.name, o.amount FROM users u, orders o "
           "WHERE u.id = o.user_id AND u.city = 'c2'")
    result = executor.execute(sql, analyze=True)
    actual = result.actual
    scans = actual.find("IndexScan")
    if scans:   # nested-loop inner side: one probe per outer row
        inner = scans[0]
        drive = actual.find("SeqScan")[0]
        assert inner.loops == drive.rows
    assert sum(n.rows_scanned for _d, n in actual.walk()) == (
        result.metrics.rows_read
    )


def test_sort_node_appears_for_order_by(db, journal):
    result = Executor(db).execute(
        "SELECT id, age FROM users WHERE city = 'c3' ORDER BY age",
        analyze=True,
    )
    sorts = result.actual.find("Sort")
    assert len(sorts) == 1
    assert sorts[0].rows == result.rowcount


def test_plan_estimate_events_emitted(db, journal):
    Executor(db).execute(
        "SELECT id FROM users WHERE age > 40", analyze=True
    )
    events = journal.events_of(PlanEstimate)
    assert events, "analyze runs must journal per-node estimates"
    assert {e["node"] for e in events} >= {"Result"}
    for event in events:
        assert event["q_error"] >= 1.0
        assert "users" in event["sql"] or event["node"] in ("Result", "Sort")


def test_render_explain_analyze(db):
    result = Executor(db).execute(
        "SELECT id FROM users WHERE age > 40", analyze=True
    )
    text = render_explain_analyze(result.plan, result.actual)
    assert text.startswith("EXPLAIN ANALYZE")
    assert "est rows" in text and "act rows" in text and "Q-err" in text
    assert "Result" in text
    assert "worst node Q-error" in text
    # Without actuals it degrades to the estimated plan.
    assert render_explain_analyze(result.plan, None) == result.plan.describe()


def test_actual_to_dict_shape(db):
    result = Executor(db).execute("SELECT id FROM users", analyze=True)
    payload = result.actual.to_dict()
    assert payload["label"] == "Result"
    assert payload["q_error"] >= 1.0
    assert isinstance(payload["children"], list)
    child_labels = [c["label"] for c in payload["children"]]
    assert any("SeqScan" in label for label in child_labels)


def test_indexes_declared_in_ddl_are_built_in_storage():
    """`explain --analyze` databases build the indexes their DDL declares,
    so an IndexScan in the plan reads the index instead of degrading to a
    seq scan over the whole table."""
    from pathlib import Path

    from repro.cli import build_stored_database

    schema = Path(__file__).parent.parent / "examples" / "cli_files" / "schema.sql"
    schema_sql = schema.read_text() + (
        "\nCREATE INDEX idx_orders_user_id ON orders (user_id);\n"
    )
    db = build_stored_database(schema_sql, {}, 1000, "innodb")
    structure = db.storage["orders"].get_index("idx_orders_user_id")
    assert structure is not None and len(structure) == 1000
    result = Executor(db).execute(
        "SELECT amount FROM orders WHERE user_id = 42", analyze=True
    )
    assert "IndexScan" in render_explain_analyze(result.plan, result.actual)
    matches = sum(
        1 for row in db.storage["orders"].rows.values() if row["user_id"] == 42
    )
    assert len(result.rows) == matches
    assert result.metrics.index_entries_read == matches
    assert result.metrics.rows_read == matches
