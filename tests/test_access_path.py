"""Access path enumeration and costing tests."""

import pytest

from repro.catalog import Index
from repro.engine import INNODB
from repro.optimizer.access_path import (
    ProbeContext,
    TableContext,
    best_no_index_cost,
    best_path,
    enumerate_paths,
)
from repro.optimizer.query_info import OrderColumn
from repro.sqlparser import classify_atomic, parse_select, split_conjuncts
from repro.stats import ColumnStats, Histogram, TableStats

from .conftest import users_table


def make_stats(rows=100_000):
    return TableStats(
        row_count=rows,
        columns={
            "id": ColumnStats(ndv=rows),
            "age": ColumnStats(ndv=60, histogram=Histogram(tuple(range(18, 81)))),
            "city": ColumnStats(ndv=50),
            "name": ColumnStats(ndv=rows),
            "score": ColumnStats(ndv=100, histogram=Histogram(tuple(range(101)))),
        },
    )


def preds(condition):
    stmt = parse_select(f"SELECT name FROM users WHERE {condition}")
    out = []
    for conjunct in split_conjuncts(stmt.where):
        atom = classify_atomic(conjunct)
        if atom is not None:
            out.append(atom)
    return out


def paths_for(condition="", indexes=(), referenced=None, **kwargs):
    ctx = TableContext(
        users_table(),
        make_stats(),
        INNODB,
        preds(condition) if condition else [],
        referenced or {"name", "city", "age"},
        **kwargs,
    )
    return enumerate_paths(ctx, list(indexes))


def test_seq_scan_always_present():
    paths = paths_for()
    assert paths[0].method == "seq"
    assert paths[0].rows_examined == 100_000


def test_selective_index_beats_seq_scan():
    idx = Index("users", ("city",))
    paths = paths_for("city = 'c1'", [idx])
    chosen = best_path(paths)
    assert chosen.method == "index"
    assert chosen.eq_columns == ("city",)
    assert chosen.cost < paths[0].cost


def test_eq_chain_then_range_prefix():
    idx = Index("users", ("city", "age", "name"))
    paths = paths_for("city = 'c1' AND age > 70 AND name = 'x'", [idx])
    path = next(p for p in paths if p.index is not None)
    assert path.eq_columns == ("city",)
    assert path.range_column == "age"
    # name = 'x' is after the range column: ICP, not prefix.
    assert path.index_selectivity < 1 / 50


def test_prefix_breaks_on_gap():
    idx = Index("users", ("city", "age"))
    paths = paths_for("age = 30", [idx])   # no city predicate: gap at col 1
    path = next((p for p in paths if p.index is not None), None)
    assert path is None or path.eq_columns == ()


def test_covering_avoids_lookups():
    covering = Index("users", ("city", "name"))
    lookup = Index("users", ("city",))
    paths = paths_for("city = 'c1'", [covering, lookup], referenced={"city", "name"})
    by_name = {p.index.name: p for p in paths if p.index is not None}
    assert by_name["idx_users_city_name"].covering
    assert not by_name["idx_users_city"].covering
    assert by_name["idx_users_city_name"].cost < by_name["idx_users_city"].cost
    assert by_name["idx_users_city"].lookup_rows > 0


def test_pk_counts_as_covering():
    paths = paths_for("id = 5")
    pk = next(p for p in paths if p.method == "pk")
    assert pk.covering
    assert pk.eq_columns == ("id",)
    assert pk.cost < paths[0].cost


def test_order_satisfaction_after_eq_prefix():
    idx = Index("users", ("city", "age"))
    paths = paths_for(
        "city = 'c1'", [idx],
        order_cols=[OrderColumn("users", "age", False)],
    )
    path = next(p for p in paths if p.index is not None)
    assert path.order_satisfied


def test_in_prefix_breaks_order_satisfaction():
    idx = Index("users", ("city", "age"))
    paths = paths_for(
        "city IN ('a', 'b')", [idx],
        order_cols=[OrderColumn("users", "age", False)],
    )
    path = next(p for p in paths if p.index is not None)
    assert not path.order_satisfied


def test_mixed_direction_order_not_satisfied():
    idx = Index("users", ("city", "age", "name"))
    paths = paths_for(
        "city = 'c1'", [idx],
        order_cols=[
            OrderColumn("users", "age", False),
            OrderColumn("users", "name", True),
        ],
    )
    path = next(p for p in paths if p.index is not None)
    assert not path.order_satisfied


def test_group_satisfaction_any_permutation():
    idx = Index("users", ("age", "city"))
    paths = paths_for(group_cols=["city", "age"], indexes=[idx])
    path = next(p for p in paths if p.index is not None)
    assert path.group_satisfied


def test_limit_early_exit_reduces_cost():
    idx = Index("users", ("age",))
    with_limit = paths_for(
        indexes=[idx],
        order_cols=[OrderColumn("users", "age", False)],
        limit=10,
    )
    without = paths_for(
        indexes=[idx],
        order_cols=[OrderColumn("users", "age", False)],
    )
    limited = next(p for p in with_limit if p.index is not None)
    full = next(p for p in without if p.index is not None)
    assert limited.cost < full.cost
    assert limited.rows_out <= 10


def test_probe_context_enables_join_index():
    idx = Index("users", ("id",))
    probe = ProbeContext({"id": 1 / 100_000})
    paths = enumerate_paths(
        TableContext(users_table(), make_stats(), INNODB, [], {"name"}, probe=probe),
        [idx],
    )
    chosen = best_path(paths)
    assert chosen.method in ("pk", "index")
    assert chosen.rows_examined < 10


def test_best_no_index_cost_ignores_secondary():
    idx = Index("users", ("city",))
    paths = paths_for("city = 'c1'", [idx])
    no_index = best_no_index_cost(paths)
    assert no_index >= paths[0].cost or no_index == paths[0].cost


def test_residual_selectivity_scales_rows_out():
    full = paths_for()[0]
    half = enumerate_paths(
        TableContext(
            users_table(), make_stats(), INNODB, [], {"name"},
            residual_selectivity=0.5,
        )
    )[0]
    assert half.rows_out == pytest.approx(full.rows_out * 0.5)
