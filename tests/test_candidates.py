"""Candidate generation tests (paper Sec. IV, Algorithms 2-7)."""

import pytest

from repro.catalog import Column, INT, Schema, Table, varchar
from repro.core import (
    AimConfig,
    CandidateGenerator,
    MODE_COVERING,
    MODE_NON_COVERING,
    PartialOrder,
    joined_tables_powerset,
)
from repro.optimizer import analyze_query
from repro.sqlparser import parse
from repro.stats import StatsCatalog, SyntheticColumn, synthesize_table


@pytest.fixture(scope="module")
def t1_schema():
    """The paper's running example: table t1 with col1..col5."""
    table = Table(
        "t1",
        [Column("id", INT)] + [Column(f"col{i}", INT) for i in range(1, 6)],
        ("id",),
    )
    return Schema.from_tables([table])


@pytest.fixture(scope="module")
def t1_stats():
    stats = StatsCatalog()
    spec = {"id": SyntheticColumn(ndv=-1, lo=1, hi=10_000)}
    for i in range(1, 6):
        spec[f"col{i}"] = SyntheticColumn(ndv=100 * i, lo=0, hi=1000)
    stats.set_table("t1", synthesize_table(10_000, spec))
    return stats


def generator(schema, stats, **kwargs):
    return CandidateGenerator(schema, stats, AimConfig(**kwargs))


def gen_orders(schema, stats, sql, mode=MODE_NON_COVERING, **kwargs):
    info = analyze_query(parse(sql), schema)
    return generator(schema, stats, **kwargs).generate_for_query(info, mode)


def test_projection_example_q1(t1_schema, t1_stats):
    """Sec. IV-A Q1: covering mode yields <{col5}, {col2, col3}>."""
    orders = gen_orders(
        t1_schema, t1_stats,
        "SELECT col2, col3 FROM t1 WHERE col5 < 2",
        mode=MODE_COVERING,
    )
    assert PartialOrder.build("t1", [["col5"], ["col2", "col3"]]) in orders


def test_selection_example_e1(t1_schema, t1_stats):
    """Sec. IV-B: col1 = ? AND col2 = ? AND col3 = ? -> <{col1,col2,col3}>."""
    orders = gen_orders(
        t1_schema, t1_stats,
        "SELECT id FROM t1 WHERE col1 = 1 AND col2 = 2 AND col3 = 3",
    )
    assert PartialOrder.build("t1", [["col1", "col2", "col3"]]) in orders


def test_selection_example_e3(t1_schema, t1_stats):
    """E3: eq on col1,col2 + ranges on col3,col4 -> <{col1,col2},{range}>
    with ONE range column chosen via Algorithm 5."""
    orders = gen_orders(
        t1_schema, t1_stats,
        "SELECT id FROM t1 WHERE col1 = 5 AND col2 = 6 AND col3 > 5 AND col4 < 2",
    )
    matching = [
        po for po in orders
        if po.partitions and po.partitions[0] == frozenset({"col1", "col2"})
    ]
    assert matching
    two_part = [po for po in matching if len(po.partitions) == 2]
    assert two_part and all(len(po.partitions[1]) == 1 for po in two_part)
    assert all(
        next(iter(po.partitions[1])) in ("col3", "col4") for po in two_part
    )


def test_group_by_example_q3(t1_schema, t1_stats):
    """Q3: GROUP BY col3 -> <{col3}> in non-covering mode."""
    orders = gen_orders(
        t1_schema, t1_stats,
        "SELECT col3, COUNT(*) FROM t1 GROUP BY col3",
    )
    assert PartialOrder.build("t1", [["col3"]]) in orders


def test_group_by_example_q4_covering(t1_schema, t1_stats):
    """Q4: covering grouping index <{col2}, {col3}, {col1}> (Sec. IV-D)."""
    orders = gen_orders(
        t1_schema, t1_stats,
        "SELECT col3, SUM(col1) FROM t1 WHERE col2 = 5 GROUP BY col3",
        mode=MODE_COVERING,
    )
    assert PartialOrder.build("t1", [["col2"], ["col3"], ["col1"]]) in orders


def test_order_by_non_covering(t1_schema, t1_stats):
    orders = gen_orders(
        t1_schema, t1_stats,
        "SELECT id FROM t1 WHERE col2 IN (1, 2) ORDER BY col3 LIMIT 5",
    )
    assert PartialOrder.chain("t1", ["col3"]) in orders


def test_order_by_covering_puts_ipp_first(t1_schema, t1_stats):
    orders = gen_orders(
        t1_schema, t1_stats,
        "SELECT col4 FROM t1 WHERE col2 = 1 ORDER BY col3 LIMIT 5",
        mode=MODE_COVERING,
    )
    expected = PartialOrder.build("t1", [["col2"], ["col3"], ["col4"]])
    assert expected in orders


def test_pk_prefix_candidates_pruned(t1_schema, t1_stats):
    orders = gen_orders(t1_schema, t1_stats, "SELECT col1 FROM t1 WHERE id = 5")
    assert PartialOrder.build("t1", [["id"]]) not in orders


def test_joined_tables_powerset_bounds(db):
    info = analyze_query(
        parse(
            "SELECT u.name FROM users u, orders o WHERE u.id = o.user_id"
        ),
        db.schema,
    )
    subsets = joined_tables_powerset(info, "o", 1)
    assert frozenset() in subsets
    assert frozenset({"u"}) in subsets
    # j = 0 degrades to the empty set only.
    assert joined_tables_powerset(info, "o", 0) == [frozenset()]


def test_join_candidates_include_join_column(db, order_rows):
    schema, stats = db.schema, db.stats
    orders = gen_orders(
        schema, stats,
        "SELECT u.name FROM users u, orders o "
        "WHERE u.id = o.user_id AND o.status = 'paid'",
        join_parameter=1,
    )
    by_table = {po for po in orders if po.table == "orders"}
    assert any("user_id" in po.columns and "status" in po.columns for po in by_table)
    assert any(po.columns == {"status"} for po in by_table)


def test_width_cap_truncates(t1_schema, t1_stats):
    info = analyze_query(
        parse(
            "SELECT col4, col5 FROM t1 "
            "WHERE col1 = 1 AND col2 = 2 AND col3 = 3"
        ),
        t1_schema,
    )
    gen = generator(t1_schema, t1_stats, max_index_width=2)
    cs = gen.generate([("q", info, MODE_COVERING)])
    assert cs.indexes
    assert all(idx.width <= 2 for idx in cs.indexes)


def test_generate_merges_and_attributes(t1_schema, t1_stats):
    sql_a = "SELECT id FROM t1 WHERE col1 = 1 AND col2 = 2 AND col3 = 3"
    sql_b = "SELECT id FROM t1 WHERE col2 = 2 AND col3 = 3"
    gen = generator(t1_schema, t1_stats)
    queries = [
        ("a", analyze_query(parse(sql_a), t1_schema), MODE_NON_COVERING),
        ("b", analyze_query(parse(sql_b), t1_schema), MODE_NON_COVERING),
    ]
    cs = gen.generate(queries)
    # The merged order exists in the fixpoint (its concrete index may
    # deduplicate with the unmerged order's linearization).
    from repro.core import merge_by_table

    merged = PartialOrder.build("t1", [["col2", "col3"], ["col1"]])
    source_orders = {
        PartialOrder.build("t1", [["col1", "col2", "col3"]]),
        PartialOrder.build("t1", [["col2", "col3"]]),
    }
    assert merged in merge_by_table(source_orders)
    merged_index = next(
        idx for idx in cs.indexes
        if set(idx.columns) == {"col1", "col2", "col3"}
        and set(idx.columns[:2]) == {"col2", "col3"}
    )
    # The merged index serves BOTH queries.
    assert merged_index in cs.attribution["a"]
    assert merged_index in cs.attribution["b"]


def test_merge_disabled_keeps_originals_only(t1_schema, t1_stats):
    sql_a = "SELECT id FROM t1 WHERE col1 = 1 AND col2 = 2 AND col3 = 3"
    sql_b = "SELECT id FROM t1 WHERE col2 = 2 AND col3 = 3"
    gen = generator(t1_schema, t1_stats, merge_orders=False)
    queries = [
        ("a", analyze_query(parse(sql_a), t1_schema), MODE_NON_COVERING),
        ("b", analyze_query(parse(sql_b), t1_schema), MODE_NON_COVERING),
    ]
    cs = gen.generate(queries)
    merged = PartialOrder.build("t1", [["col2", "col3"], ["col1"]])
    assert merged not in cs.orders


def test_index_linearization_most_selective_first(t1_schema, t1_stats):
    gen = generator(t1_schema, t1_stats)
    po = PartialOrder.build("t1", [["col1", "col5"]])
    index = gen.index_for_order(po)
    # col5 has ndv 500 > col1's 100: most selective first.
    assert index.columns == ("col5", "col1")


def test_candidates_are_dataless(t1_schema, t1_stats):
    orders = gen_orders(
        t1_schema, t1_stats, "SELECT id FROM t1 WHERE col1 = 1"
    )
    gen = generator(t1_schema, t1_stats)
    for po in orders:
        idx = gen.index_for_order(po)
        if idx is not None:
            assert idx.dataless
