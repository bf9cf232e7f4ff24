"""Executor edge cases and failure injection."""

from collections import Counter

import pytest

from repro.catalog import Index
from repro.engine import ExecutionMetrics, StorageError
from repro.executor import Executor, ExprEvaluator
from repro.executor.executor import SCAN_CHUNK, _Pipeline
from repro.optimizer import ResolutionError
from repro.qa.reference import ReferenceDatabase
from repro.sqlparser import parse

from .conftest import orders_table, users_table


def test_vanished_index_degrades_to_seq_scan(indexed_db):
    """If an index disappears from storage between planning and
    execution, the scan degrades safely instead of crashing."""
    executor = Executor(indexed_db)
    # Remove the physical structure but keep the catalog entry.
    indexed_db.storage["orders"].drop_index("idx_orders_created")
    result = executor.execute("SELECT amount FROM orders WHERE created < 10000")
    assert result.rows   # correct results via the fallback scan


def test_update_changing_pk_maintains_lookup(db):
    executor = Executor(db)
    executor.execute("UPDATE users SET id = 100000 WHERE id = 3")
    gone = executor.execute("SELECT name FROM users WHERE id = 3")
    assert gone.rows == []
    moved = executor.execute("SELECT name FROM users WHERE id = 100000")
    assert moved.rows == [("n3",)]


def test_update_of_pk_then_delete_leaves_no_stale_index_entries(indexed_db):
    """Every secondary key ends with the PK, so an UPDATE of the PK
    re-keys every secondary index, and a later DELETE removes all."""
    executor = Executor(indexed_db)
    storage = indexed_db.storage["orders"]
    assert executor.execute("UPDATE orders SET oid = 100000 WHERE oid = 3").rowcount == 1
    assert executor.execute("DELETE FROM orders WHERE oid = 100000").rowcount == 1
    for structure in (storage.pk_index, *storage.secondary.values()):
        assert sorted(rid for _k, rid in structure.scan_all()) == sorted(storage.rows)
    found = executor.execute("SELECT COUNT(*) FROM orders WHERE created >= 0")
    assert found.rows[0][0] == storage.row_count


def test_delete_via_index_path(indexed_db, order_rows):
    executor = Executor(indexed_db)
    expected = sum(1 for o in order_rows if o["created"] < 5000)
    result = executor.execute("DELETE FROM orders WHERE created < 5000")
    assert result.rowcount == expected
    # The index no longer returns the deleted rows.
    check = executor.execute("SELECT COUNT(*) FROM orders WHERE created < 5000")
    assert check.rows[0][0] == 0


def test_left_join_treated_as_inner_documented(db):
    """LEFT JOIN parses and executes with inner-join semantics (a
    documented substrate simplification, DESIGN.md)."""
    executor = Executor(db)
    result = executor.execute(
        "SELECT u.name FROM users u LEFT JOIN orders o ON u.id = o.user_id "
        "WHERE o.amount > 995"
    )
    inner = executor.execute(
        "SELECT u.name FROM users u, orders o WHERE u.id = o.user_id "
        "AND o.amount > 995"
    )
    assert sorted(result.rows) == sorted(inner.rows)


def test_empty_in_list_rejected(db):
    from repro.sqlparser import ParseError

    executor = Executor(db)
    with pytest.raises(ParseError):
        executor.execute("SELECT name FROM users WHERE id IN ()")


def test_limit_zero_returns_nothing(db):
    executor = Executor(db)
    result = executor.execute("SELECT name FROM users LIMIT 0")
    assert result.rows == []


def test_offset_beyond_rows(db):
    executor = Executor(db)
    result = executor.execute("SELECT name FROM users ORDER BY id LIMIT 5 OFFSET 10000")
    assert result.rows == []


def test_large_in_list_expansion_capped(indexed_db):
    """An IN list beyond the subrange cap falls back to a wider scan and
    still returns correct results."""
    executor = Executor(indexed_db)
    values = ", ".join(str(v) for v in range(0, 500_000, 500))
    result = executor.execute(
        f"SELECT COUNT(*) FROM orders WHERE created IN ({values})"
    )
    assert result.rows[0][0] >= 0   # correctness: no crash, exact count below
    brute = executor.execute("SELECT created FROM orders")
    expected = sum(1 for (c,) in brute.rows if c in set(range(0, 500_000, 500)))
    assert result.rows[0][0] == expected


def test_aggregate_over_empty_group_returns_nulls(db):
    executor = Executor(db)
    result = executor.execute(
        "SELECT COUNT(*), SUM(amount), MIN(amount), AVG(amount) "
        "FROM orders WHERE amount > 99999"
    )
    assert result.rows == [(0, None, None, None)]


def test_distinct_with_nulls(db):
    executor = Executor(db)
    result = executor.execute("SELECT DISTINCT score FROM users WHERE score IS NULL")
    assert result.rows == [(None,)]


# -- duplicate IN-list values on index paths -----------------------------------
_DUPLICATE_IN = [
    # (statement, access method the plan must use)
    ("SELECT oid, amount FROM orders WHERE oid IN (7, 7)", "pk"),
    ("SELECT oid FROM orders WHERE oid IN (7, 7.0, 8)", "pk"),
    ("SELECT oid, status FROM orders WHERE user_id IN (5, 5, 5)", "index"),
    ("SELECT oid FROM orders WHERE user_id IN (5, 5.0) AND status = 'paid'", "index"),
    ("UPDATE orders SET amount = amount + 1 WHERE oid IN (9, 9)", "pk"),
    ("UPDATE orders SET status = 'x' WHERE user_id IN (6, 6)", "index"),
    ("DELETE FROM orders WHERE oid IN (11, 11)", "pk"),
    ("DELETE FROM orders WHERE user_id IN (7, 7.0)", "index"),
]


@pytest.mark.parametrize("sql,method", _DUPLICATE_IN,
                         ids=[sql.split(" WHERE ")[1] + " " + sql.split()[0]
                              for sql, _m in _DUPLICATE_IN])
def test_duplicate_in_values_match_reference(db, user_rows, order_rows, sql, method):
    """A repeated IN value (also ``5`` vs ``5.0``, one index key) selects
    each row once on PK and secondary-index paths, as a full scan does."""
    db.create_index(Index("orders", ("user_id",)))
    executor = Executor(db)
    reference = ReferenceDatabase(
        [users_table(), orders_table()], {"users": user_rows, "orders": order_rows}
    )
    result = executor.execute(sql)
    expected = reference.execute(sql)
    assert result.plan.steps[0].path.method == method
    assert Counter(result.rows) == Counter(expected.rows)
    assert result.rowcount == expected.rowcount > 0
    columns = orders_table().column_names
    stored = [tuple(row[c] for c in columns) for row in db.storage["orders"].rows.values()]
    wanted = [tuple(row[c] for c in columns) for row in reference.table_rows("orders")]
    assert Counter(stored) == Counter(wanted)


def test_seq_scan_never_yields_a_row_deleted_mid_scan(db):
    """A scan filters the table a chunk of row ids at a time; a row
    deleted after the scan started -- later in the current chunk or in a
    later one -- is never yielded, so every yielded id is still stored."""
    stmt = parse("SELECT * FROM orders WHERE amount > 100")
    plan = Executor(db).optimizer.explain(stmt)
    assert plan.steps[0].path.method == "seq"
    pipeline = _Pipeline(db, plan.info, plan, ExprEvaluator(plan.info, db.schema),
                         ExecutionMetrics())
    storage = pipeline.steps[0].storage
    passing = [i for i, row in storage.rows.items() if row["amount"] > 100]
    assert len(storage.rows) > 2 * SCAN_CHUNK
    yielded, deleted = [], set()
    for n, row_id in enumerate(pipeline._scan(pipeline.steps[0], {})):
        assert row_id in storage.rows
        yielded.append(row_id)
        if n % 5 == 0:
            for victim in (row_id + 1, row_id + 2, row_id + SCAN_CHUNK + 3):
                if victim in storage.rows:
                    storage.delete_row(victim)
                    deleted.add(victim)
    assert deleted and not deleted & set(yielded)
    assert yielded == [i for i in passing if i not in deleted]


def _snapshot(db, table):
    storage = db.storage[table]
    return (
        dict(storage.rows.items()),
        list(storage.pk_index.scan_all()),
        {name: list(index.scan_all()) for name, index in storage.secondary.items()},
    )


@pytest.mark.parametrize("sql", [
    "UPDATE orders SET nosuch = 1 WHERE oid = 3",
    "UPDATE orders SET amount = 5, nosuch = 1 WHERE oid = 3",
    "UPDATE orders SET amount = orders.nosuch WHERE oid < 10",
    "INSERT INTO orders (nosuch) VALUES (1)",
    "INSERT INTO orders (oid, nosuch) VALUES (90000, 1)",
])
def test_dml_naming_an_unknown_column_raises_before_writing(indexed_db, sql):
    before = _snapshot(indexed_db, "orders")
    with pytest.raises(ResolutionError, match="nosuch"):
        Executor(indexed_db).execute(sql)
    assert _snapshot(indexed_db, "orders") == before


@pytest.mark.parametrize("sql", [
    "INSERT INTO orders (oid, user_id) VALUES (1, 7)",             # existing key
    "INSERT INTO orders (user_id, amount) VALUES (7, 10)",         # NULL key
    "INSERT INTO orders (oid, user_id) VALUES (NULL, 7)",
    "INSERT INTO orders (oid) VALUES (90000), (90001), (90000)",   # repeated key
    "UPDATE orders SET oid = 5 WHERE oid = 3",                     # onto a key
    "UPDATE orders SET oid = 90000 WHERE oid < 3",                 # two rows, one key
    "UPDATE orders SET oid = NULL WHERE oid = 3",
])
def test_dml_breaking_primary_key_integrity_raises_before_writing(indexed_db, sql):
    before = _snapshot(indexed_db, "orders")
    with pytest.raises(StorageError, match="primary key"):
        Executor(indexed_db).execute(sql)
    assert _snapshot(indexed_db, "orders") == before


def test_primary_keys_are_checked_on_the_statements_final_keys(indexed_db):
    """Keys held by rows the UPDATE itself moves away are free: the last
    two orders shift up by one although the first lands on the second's
    old key."""
    executor = Executor(indexed_db)
    first = len(indexed_db.storage["orders"].rows) - 2
    moved = executor.execute(f"UPDATE orders SET oid = oid + 1 WHERE oid >= {first}")
    assert moved.rowcount == 2
    keys = executor.execute(f"SELECT oid FROM orders WHERE oid >= {first} ORDER BY oid")
    assert keys.rows == [(first + 1,), (first + 2,)]
    inserted = executor.execute("INSERT INTO orders (oid) VALUES (90000), (90001)")
    assert inserted.rowcount == 2
