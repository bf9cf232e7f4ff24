"""Executor correctness tests against brute-force expectations."""

import pytest

from repro.catalog import Index
from repro.executor import Executor
from repro.workloads.tpch.datagen import load_tpch


@pytest.fixture()
def ex(db):
    return Executor(db)


@pytest.fixture()
def indexed_ex(indexed_db):
    return Executor(indexed_db)


def brute_users(user_rows, cond):
    return [u for u in user_rows if cond(u)]


def test_point_select(ex, user_rows):
    r = ex.execute("SELECT name FROM users WHERE id = 42")
    assert r.rows == [("n42",)]
    assert r.metrics.rows_sent == 1


def test_filter_and_projection(ex, user_rows):
    r = ex.execute("SELECT name, age FROM users WHERE city = 'c3' AND age > 40")
    expected = sorted(
        (u["name"], u["age"])
        for u in user_rows
        if u["city"] == "c3" and u["age"] > 40
    )
    assert sorted(r.rows) == expected


def test_index_scan_matches_seq_scan_results(indexed_ex, order_rows):
    # 1% selective range on orders.created: the index wins clearly.
    sql = "SELECT amount FROM orders WHERE created < 10000"
    indexed = indexed_ex.execute(sql)
    expected = sorted(o["amount"] for o in order_rows if o["created"] < 10000)
    assert sorted(r[0] for r in indexed.rows) == expected
    assert indexed.plan.used_index_keys == {Index("orders", ("created",)).key}
    # Far fewer rows touched than the 3000-row table.
    assert indexed.metrics.rows_read < 100


def test_or_predicate(ex, user_rows):
    r = ex.execute("SELECT id FROM users WHERE age < 20 OR age > 78")
    expected = sorted(
        (u["id"],) for u in user_rows if u["age"] < 20 or u["age"] > 78
    )
    assert sorted(r.rows) == expected


def test_in_and_between(ex, order_rows):
    r = ex.execute(
        "SELECT COUNT(*) FROM orders WHERE status IN ('paid', 'new') "
        "AND amount BETWEEN 100 AND 200"
    )
    expected = sum(
        1
        for o in order_rows
        if o["status"] in ("paid", "new") and 100 <= o["amount"] <= 200
    )
    assert r.rows[0][0] == expected


def test_is_null(ex, user_rows):
    r = ex.execute("SELECT COUNT(*) FROM users WHERE score IS NULL")
    assert r.rows[0][0] == sum(1 for u in user_rows if u["score"] is None)
    r2 = ex.execute("SELECT COUNT(*) FROM users WHERE score IS NOT NULL")
    assert r.rows[0][0] + r2.rows[0][0] == len(user_rows)


def test_null_comparison_never_matches(ex, user_rows):
    r = ex.execute("SELECT COUNT(*) FROM users WHERE score > 0")
    expected = sum(1 for u in user_rows if u["score"] is not None and u["score"] > 0)
    assert r.rows[0][0] == expected


def test_like_patterns(ex, user_rows):
    r = ex.execute("SELECT COUNT(*) FROM users WHERE name LIKE 'n1%'")
    expected = sum(1 for u in user_rows if u["name"].startswith("n1"))
    assert r.rows[0][0] == expected
    r2 = ex.execute("SELECT COUNT(*) FROM users WHERE name LIKE 'n_'")
    expected2 = sum(1 for u in user_rows if len(u["name"]) == 2)
    assert r2.rows[0][0] == expected2


def test_order_by_asc_desc_limit_offset(ex, user_rows):
    r = ex.execute("SELECT id, age FROM users ORDER BY age DESC, id LIMIT 5")
    expected = sorted(
        ((u["id"], u["age"]) for u in user_rows), key=lambda t: (-t[1], t[0])
    )[:5]
    assert r.rows == expected
    r2 = ex.execute("SELECT id FROM users ORDER BY id LIMIT 3 OFFSET 10")
    assert r2.rows == [(10,), (11,), (12,)]


def test_order_by_with_index_early_exit(indexed_ex, order_rows):
    r = indexed_ex.execute("SELECT created FROM orders ORDER BY created LIMIT 5")
    expected = sorted(o["created"] for o in order_rows)[:5]
    assert [row[0] for row in r.rows] == expected


def test_order_by_desc_via_index_reverse_scan(indexed_ex, order_rows):
    r = indexed_ex.execute("SELECT created FROM orders ORDER BY created DESC LIMIT 5")
    expected = sorted((o["created"] for o in order_rows), reverse=True)[:5]
    assert [row[0] for row in r.rows] == expected


def test_group_by_with_aggregates(ex, order_rows):
    r = ex.execute(
        "SELECT status, COUNT(*), SUM(amount), MIN(amount), MAX(amount), AVG(amount) "
        "FROM orders GROUP BY status ORDER BY status"
    )
    from collections import defaultdict

    groups = defaultdict(list)
    for o in order_rows:
        groups[o["status"]].append(o["amount"])
    expected = [
        (
            s,
            len(v),
            sum(v),
            min(v),
            max(v),
            sum(v) / len(v),
        )
        for s, v in sorted(groups.items())
    ]
    assert [
        (row[0], row[1], row[2], row[3], row[4], pytest.approx(row[5]))
        for row in r.rows
    ] == [
        (e[0], e[1], e[2], e[3], e[4], pytest.approx(e[5])) for e in expected
    ]


def test_count_distinct(ex, order_rows):
    r = ex.execute("SELECT COUNT(DISTINCT status) FROM orders")
    assert r.rows[0][0] == len({o["status"] for o in order_rows})


def test_having_filters_groups(ex, order_rows):
    r = ex.execute(
        "SELECT user_id, COUNT(*) FROM orders GROUP BY user_id HAVING COUNT(*) > 10"
    )
    from collections import Counter

    counts = Counter(o["user_id"] for o in order_rows)
    expected = {(u, c) for u, c in counts.items() if c > 10}
    assert set(r.rows) == expected


def test_global_aggregate_without_group(ex, order_rows):
    r = ex.execute("SELECT COUNT(*), SUM(amount) FROM orders WHERE amount > 990")
    matching = [o["amount"] for o in order_rows if o["amount"] > 990]
    assert r.rows == [(len(matching), sum(matching) if matching else None)]


def test_arithmetic_in_projection(ex):
    r = ex.execute("SELECT age * 2 + 1 FROM users WHERE id = 0")
    age = ex.execute("SELECT age FROM users WHERE id = 0").rows[0][0]
    assert r.rows[0][0] == age * 2 + 1


def test_distinct(ex, order_rows):
    r = ex.execute("SELECT DISTINCT status FROM orders")
    assert sorted(row[0] for row in r.rows) == sorted({o["status"] for o in order_rows})


def test_join_matches_brute_force(ex, user_rows, order_rows):
    r = ex.execute(
        "SELECT u.name, o.amount FROM users u, orders o "
        "WHERE u.id = o.user_id AND o.status = 'paid' AND u.city = 'c3'"
    )
    users_by_id = {u["id"]: u for u in user_rows}
    expected = sorted(
        (users_by_id[o["user_id"]]["name"], o["amount"])
        for o in order_rows
        if o["status"] == "paid" and users_by_id[o["user_id"]]["city"] == "c3"
    )
    assert sorted(r.rows) == expected


def test_join_with_indexes_same_results(indexed_ex, ex):
    sql = (
        "SELECT u.name, o.amount FROM users u, orders o "
        "WHERE u.id = o.user_id AND o.status = 'paid' AND u.city = 'c3'"
    )
    assert sorted(indexed_ex.execute(sql).rows) == sorted(ex.execute(sql).rows)


def test_three_way_join(ex, db, user_rows, order_rows):
    r = ex.execute(
        "SELECT COUNT(*) FROM users u, orders o1, orders o2 "
        "WHERE u.id = o1.user_id AND u.id = o2.user_id "
        "AND o1.status = 'paid' AND o2.status = 'done' AND u.city = 'c1'"
    )
    users_by_id = {u["id"]: u for u in user_rows}
    paid = [o for o in order_rows if o["status"] == "paid"]
    done = [o for o in order_rows if o["status"] == "done"]
    expected = sum(
        1
        for a in paid
        for b in done
        if a["user_id"] == b["user_id"]
        and users_by_id[a["user_id"]]["city"] == "c1"
    )
    assert r.rows[0][0] == expected


def test_insert_visible_to_select(ex):
    ex.execute("INSERT INTO users (id, age, city, name) VALUES (9999, 30, 'cx', 'new')")
    r = ex.execute("SELECT name FROM users WHERE id = 9999")
    assert r.rows == [("new",)]


def test_update_applies_and_counts(ex, order_rows):
    expected = sum(1 for o in order_rows if o["user_id"] == 10)
    r = ex.execute("UPDATE orders SET status = 'void' WHERE user_id = 10")
    assert r.rowcount == expected
    check = ex.execute("SELECT COUNT(*) FROM orders WHERE status = 'void'")
    assert check.rows[0][0] == expected


def test_update_maintains_indexes(indexed_ex, indexed_db):
    indexed_ex.execute("UPDATE orders SET status = 'void' WHERE user_id = 10")
    direct = indexed_ex.execute(
        "SELECT COUNT(*) FROM orders WHERE user_id = 10 AND status = 'void'"
    )
    assert direct.plan.used_index_keys   # via idx_orders_user_id_status
    brute = sum(
        1
        for row in indexed_db.storage["orders"].rows.values()
        if row["user_id"] == 10 and row["status"] == "void"
    )
    assert direct.rows[0][0] == brute


def test_delete_applies(ex, order_rows):
    expected = sum(1 for o in order_rows if o["amount"] < 20)
    r = ex.execute("DELETE FROM orders WHERE amount < 20")
    assert r.rowcount == expected
    check = ex.execute("SELECT COUNT(*) FROM orders WHERE amount < 20")
    assert check.rows[0][0] == 0


def test_metrics_rows_sent_matches(ex):
    r = ex.execute("SELECT id FROM users WHERE age > 50")
    assert r.metrics.rows_sent == len(r.rows)


def test_executor_requires_storage():
    from repro.engine import Database
    from .conftest import users_table

    stats_only = Database.from_tables([users_table()], with_storage=False)
    with pytest.raises(RuntimeError):
        Executor(stats_only)


def test_parameterized_query_rejected(ex):
    with pytest.raises(ValueError):
        ex.execute("SELECT name FROM users WHERE id = ?")


@pytest.mark.parametrize("where, limit", [
    ("o_custkey = 7", 3),
    ("o_custkey = 7 AND o_orderdate > 100", 2),
])
def test_desc_index_scan_with_eq_prefix_under_limit(where, limit):
    # The index binds o_custkey by equality and satisfies ORDER BY ... DESC,
    # so the scan must walk the prefix backwards before LIMIT cuts it.
    db = load_tpch(0.001, seed=1)
    ex = Executor(db)
    sql = (
        f"SELECT o_orderkey, o_orderdate FROM orders WHERE {where} "
        f"ORDER BY o_orderdate DESC LIMIT {limit}"
    )
    expected = ex.execute(sql).rows
    db.create_index(Index("orders", ("o_custkey", "o_orderdate")))
    result = ex.execute(sql)
    assert result.plan.used_index_keys == {
        Index("orders", ("o_custkey", "o_orderdate")).key
    }
    assert result.rows == expected
    assert len(expected) == limit
