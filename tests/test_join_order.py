"""Join order planning tests."""

import hashlib
import json

import pytest

from repro.catalog import Index
from repro.executor import Executor
from repro.optimizer import Optimizer
from repro.sqlparser import ast, parse
from repro.workloads.job import job_database, job_workload
from repro.workloads.production import PRODUCTS, build_product
from repro.workloads.tpcds import tpcds_database, tpcds_workload


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


@pytest.mark.parametrize(
    "join",
    [
        "u.id = o.user_id AND u.id = o.user_id",
        "u.id = o.user_id AND o.user_id = u.id",
    ],
    ids=["repeated", "reversed"],
)
def test_repeated_join_predicate_counts_once(db, join):
    """A join predicate written twice, in either orientation, is one edge
    of the join graph: the estimate and the executed work equal those of
    the predicate written once."""
    template = "SELECT u.name, o.amount FROM users u, orders o WHERE {} AND u.age = 30"
    single_sql = template.format("u.id = o.user_id")
    repeated_sql = template.format(join)
    single, repeated = plan(db, single_sql), plan(db, repeated_sql)
    assert repeated.total_cost == single.total_cost
    assert repeated.rows_out == single.rows_out
    single_run = Executor(db).execute(single_sql)
    repeated_run = Executor(db).execute(repeated_sql)
    assert sorted(repeated_run.rows) == sorted(single_run.rows)
    assert repeated_run.metrics == single_run.metrics


#: sha256 of every join statement's plan in JOB, TPC-DS (scale 10) and
#: Product A (:func:`_join_plan_payload`), each planned with no secondary
#: index and with a single-column dataless index on every join column.
JOIN_PLAN_DIGEST = "0a838c43f03563ec"


def _join_indexes(info) -> list[Index]:
    """One single-column index per (table, column) on a join edge."""
    keys = {
        (info.bindings[binding], column)
        for binding, edges in info.joins.items()
        for column, _other, _other_column in edges
    }
    return [Index(table, (column,), dataless=True) for table, column in sorted(keys)]


def _plan_digest(p) -> list:
    digits = "{:.9g}".format
    return [
        [step.path.binding for step in p.steps],
        [
            [step.path.describe(), step.join_method,
             digits(step.rows_after), digits(step.step_cost)]
            for step in p.steps
        ],
        digits(p.total_cost),
        digits(p.rows_out),
    ]


def _join_plan_payload() -> dict:
    product = build_product(PRODUCTS["A"])
    sources = [
        ("job", job_database(), job_workload()),
        ("tpcds", tpcds_database(scale_factor=10), tpcds_workload()),
        ("product_a", product.db, product.workload),
    ]
    payload: dict[str, list] = {}
    for name, database, workload in sources:
        optimizer = Optimizer(database)
        plans = payload[name] = []
        for query in workload:
            info = optimizer.analyze(query.sql)
            if not isinstance(info.stmt, ast.Select) or len(info.bindings) < 2:
                continue
            plans.append([
                _plan_digest(optimizer.explain(info)),
                _plan_digest(optimizer.explain(info, _join_indexes(info))),
            ])
    return payload


def test_join_plans_pinned():
    """Join order, access and join methods, row estimates and costs of
    every join statement are pinned: a change to the join graph or the
    join search that moves a plan shows here.  Floats are rounded to 9
    significant digits, because Python 3.12's float ``sum()`` rounds
    differently from 3.10/3.11."""
    payload = _join_plan_payload()
    assert [len(payload[name]) for name in ("job", "tpcds", "product_a")] == [22, 14, 67]
    text = json.dumps(payload, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == JOIN_PLAN_DIGEST
