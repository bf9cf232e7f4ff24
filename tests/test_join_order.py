"""Join order planning tests."""

import pytest

from repro.catalog import Index
from repro.optimizer import Optimizer
from repro.sqlparser import parse


def plan(db, sql, extra=()):
    return Optimizer(db).explain(sql, extra_indexes=list(extra))


def test_single_table_plan_shape(db):
    p = plan(db, "SELECT name FROM users WHERE city = 'c1'")
    assert len(p.steps) == 1
    assert p.steps[0].join_method == "drive"
    assert p.total_cost > 0


def test_selective_table_drives_join(db):
    # users filtered to ~1 city (50 rows); orders unfiltered (3000 rows).
    p = plan(
        db,
        "SELECT u.name, o.amount FROM users u, orders o "
        "WHERE u.id = o.user_id AND u.city = 'c1'",
    )
    assert p.steps[0].path.binding == "u"


def test_straight_join_fixes_order(db):
    p = plan(
        db,
        "SELECT o.amount FROM orders o STRAIGHT_JOIN users u ON u.id = o.user_id",
    )
    assert p.steps[0].path.binding == "o"


def test_nlj_uses_inner_index_via_pk(db):
    p = plan(
        db,
        "SELECT u.name, o.amount FROM orders o, users u "
        "WHERE u.id = o.user_id AND o.amount < 5",
    )
    nlj_steps = [s for s in p.steps if s.join_method == "nlj"]
    if nlj_steps:
        assert nlj_steps[0].path.method in ("pk", "index")


def test_join_cardinality_reasonable(db, user_rows, order_rows):
    p = plan(
        db,
        "SELECT u.name, o.amount FROM users u, orders o WHERE u.id = o.user_id",
    )
    # Every order matches exactly one user: ~3000 rows out.
    assert p.rows_out == pytest.approx(3000, rel=0.5)


def test_extra_join_index_lowers_cost(db):
    sql = (
        "SELECT u.name, o.amount FROM users u, orders o "
        "WHERE u.id = o.user_id AND o.status = 'paid' AND u.city = 'c1'"
    )
    base = plan(db, sql).total_cost
    improved = plan(db, sql, [Index("orders", ("user_id", "status"), dataless=True)])
    assert improved.total_cost <= base


def test_sort_elision_with_interesting_order(db):
    idx = Index("users", ("age",), dataless=True)
    with_idx = plan(db, "SELECT age FROM users ORDER BY age LIMIT 5", [idx])
    without = plan(db, "SELECT age FROM users ORDER BY age LIMIT 5")
    assert with_idx.sort_rows == 0
    assert without.sort_rows > 0
    assert with_idx.total_cost < without.total_cost


def test_group_by_cardinality(db):
    p = plan(db, "SELECT status, COUNT(*) FROM orders GROUP BY status")
    assert p.rows_out <= 5


def test_having_reduces_rows(db):
    base = plan(db, "SELECT status, COUNT(*) FROM orders GROUP BY status")
    having = plan(
        db,
        "SELECT status, COUNT(*) FROM orders GROUP BY status HAVING COUNT(*) > 10",
    )
    assert having.rows_out < base.rows_out


def test_limit_caps_rows_out(db):
    p = plan(db, "SELECT name FROM users LIMIT 7")
    assert p.rows_out == 7


def test_io_savings_attribution(db):
    idx = Index("users", ("city", "name"), dataless=True)
    p = plan(db, "SELECT name FROM users WHERE city = 'c1'", [idx])
    if idx.key in p.used_index_keys:
        savings = p.io_savings()
        assert savings[idx.key] > 0


def test_plan_describe_mentions_steps(db):
    p = plan(db, "SELECT u.name FROM users u, orders o WHERE u.id = o.user_id")
    text = p.describe()
    assert "->" in text and "total=" in text


def test_cross_product_without_edges_planned(db):
    p = plan(db, "SELECT u.name FROM users u, orders o WHERE u.city = 'c1' AND o.amount = 5")
    assert len(p.steps) == 2
    assert p.total_cost > 0


def test_many_table_greedy_fallback():
    """> DP_LIMIT tables still plan (greedy)."""
    from repro.catalog import Column, INT, Table
    from repro.engine import Database

    tables = []
    for i in range(12):
        cols = [Column("id", INT), Column("v", INT)]
        if i > 0:
            cols.append(Column(f"t{i-1}_id", INT))
        tables.append(Table(f"t{i}", cols, ("id",)))
    db12 = Database.from_tables(tables, with_storage=False)
    from repro.stats import SyntheticColumn, synthesize_table

    for i in range(12):
        spec = {"id": SyntheticColumn(ndv=-1, lo=1, hi=1000), "v": SyntheticColumn(ndv=10)}
        if i > 0:
            spec[f"t{i-1}_id"] = SyntheticColumn(ndv=1000, lo=1, hi=1000)
        db12.set_stats(f"t{i}", synthesize_table(1000, spec))
    froms = ", ".join(f"t{i}" for i in range(12))
    conds = " AND ".join(f"t{i}.t{i-1}_id = t{i-1}.id" for i in range(1, 12))
    p = Optimizer(db12).explain(f"SELECT t0.v FROM {froms} WHERE {conds}")
    assert len(p.steps) == 12
