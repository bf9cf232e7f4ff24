"""Query analysis (QueryInfo) tests -- Table I's structural metadata."""

import pytest

from repro.catalog import Schema
from repro.optimizer import analyze_query
from repro.optimizer.query_info import ResolutionError
from repro.sqlparser import parse
from repro.workload import Workload, WorkloadQuery
from repro.workload.intake import admit

from .conftest import orders_table, users_table


@pytest.fixture(scope="module")
def schema():
    return Schema.from_tables([users_table(), orders_table()])


def analyze(sql, schema):
    return analyze_query(parse(sql), schema)


def test_bindings_with_aliases(schema):
    info = analyze("SELECT u.name FROM users u, orders o WHERE u.id = o.user_id", schema)
    assert info.bindings == {"u": "users", "o": "orders"}


def test_unqualified_column_resolution(schema):
    info = analyze("SELECT name FROM users WHERE age > 5", schema)
    assert info.filters["users"][0].column.column == "age"


def test_ambiguous_column_raises():
    from repro.catalog import Column, INT, Table

    t1 = Table("t1", [Column("id", INT), Column("x", INT)], ("id",))
    t2 = Table("t2", [Column("id", INT), Column("x", INT)], ("id",))
    s = Schema.from_tables([t1, t2])
    with pytest.raises(ResolutionError):
        analyze("SELECT x FROM t1, t2 WHERE t1.id = t2.id", s)


def test_unknown_column_raises(schema):
    with pytest.raises(ResolutionError):
        analyze("SELECT nothere FROM users", schema)


def test_join_edges_from_where_and_on(schema):
    info = analyze(
        "SELECT u.name FROM users u JOIN orders o ON u.id = o.user_id", schema
    )
    assert info.joins == {"u": [("id", "o", "user_id")], "o": [("user_id", "u", "id")]}
    assert info.joined_bindings("u") == {"o"}


def test_filters_vs_join_separation(schema):
    info = analyze(
        "SELECT u.name FROM users u, orders o "
        "WHERE u.id = o.user_id AND o.status = 'paid' AND u.age > 30",
        schema,
    )
    assert info.joins["o"] == [("user_id", "u", "id")]
    assert [p.op for p in info.filters["o"]] == ["="]
    assert [p.op for p in info.filters["u"]] == [">"]


def test_complex_conjunct_bucketing(schema):
    info = analyze(
        "SELECT name FROM users WHERE (age > 30 OR score > 50) AND city = 'c1'",
        schema,
    )
    assert len(info.filters["users"]) == 1     # city atomic
    assert len(info.complex_conjuncts) == 1
    touched, _expr = info.complex_conjuncts[0]
    assert touched == frozenset({"users"})


def test_group_by_and_order_by_resolution(schema):
    info = analyze(
        "SELECT city, COUNT(*) FROM users GROUP BY city ORDER BY city DESC",
        schema,
    )
    assert info.group_by == [("users", "city")]
    assert info.order_by[0].column == "city"
    assert info.order_by[0].desc


def test_referenced_columns_cover_all_clauses(schema):
    info = analyze(
        "SELECT name FROM users WHERE age > 1 GROUP BY city ORDER BY score",
        schema,
    )
    assert info.referenced["users"] == {"name", "age", "city", "score"}


def test_select_star_references_everything(schema):
    info = analyze("SELECT * FROM users", schema)
    assert info.select_star
    assert info.referenced["users"] == set(users_table().column_names)


def test_straight_join_flag(schema):
    info = analyze(
        "SELECT u.name FROM users u STRAIGHT_JOIN orders o ON u.id = o.user_id",
        schema,
    )
    assert info.straight_join


def test_limit_captured(schema):
    info = analyze("SELECT name FROM users LIMIT 7", schema)
    assert info.limit == 7


def test_dml_update_analysis(schema):
    info = analyze("UPDATE orders SET status = 'x' WHERE oid = 5", schema)
    assert info.bindings == {"orders": "orders"}
    assert info.filters["orders"][0].column.column == "oid"
    assert "status" in info.referenced["orders"]


def test_dml_insert_analysis(schema):
    info = analyze("INSERT INTO users (id, age) VALUES (1, 2)", schema)
    assert info.referenced["users"] == {"id", "age"}


@pytest.mark.parametrize("sql", [
    "UPDATE orders SET nosuch = 1 WHERE oid = 3",
    "UPDATE orders SET status = 'x', nosuch = 1",
    "INSERT INTO orders (nosuch) VALUES (1)",
    "INSERT INTO orders (oid, nosuch) VALUES (1, 2)",
])
def test_dml_writing_an_unknown_column_raises(schema, sql):
    with pytest.raises(ResolutionError, match="nosuch"):
        analyze(sql, schema)


def test_intake_skips_dml_writing_an_unknown_column(schema):
    workload = Workload([
        WorkloadQuery("UPDATE orders SET nosuch = 1 WHERE oid = 3", 1.0),
        WorkloadQuery("INSERT INTO orders (nosuch) VALUES (1)", 1.0),
        WorkloadQuery("UPDATE orders SET status = 'x' WHERE oid = 3", 1.0),
    ])
    admitted, skipped = admit(workload, schema)
    assert [q.sql for q in admitted] == ["UPDATE orders SET status = 'x' WHERE oid = 3"]
    assert [(e.position, e.reason) for e in skipped] == [(1, "resolve"), (2, "resolve")]


def test_sargable_filters_excludes_residuals(schema):
    info = analyze("SELECT name FROM users WHERE age != 5 AND city = 'a'", schema)
    assert [p.op for p in info.sargable_filters("users")] == ["="]


def test_duplicate_binding_raises(schema):
    with pytest.raises(ResolutionError):
        analyze("SELECT u.name FROM users u, orders u", schema)


def test_repeated_join_predicate_listed_once(schema):
    info = analyze(
        "SELECT u.name FROM users u, orders o "
        "WHERE u.id = o.user_id AND o.user_id = u.id AND u.id = o.user_id",
        schema,
    )
    assert info.joins == {"u": [("id", "o", "user_id")], "o": [("user_id", "u", "id")]}
