"""IPP relaxation tests (paper Sec. V-A, third granularity lever)."""

import pytest

from repro.catalog import Column, INT, Schema, Table
from repro.core import AimConfig, CandidateGenerator, MODE_NON_COVERING
from repro.optimizer import analyze_query
from repro.sqlparser import parse
from repro.stats import StatsCatalog, SyntheticColumn, synthesize_table


@pytest.fixture(scope="module")
def schema():
    table = Table(
        "t",
        [Column("id", INT), Column("hi_ndv", INT), Column("mid_ndv", INT),
         Column("lo_ndv", INT), Column("tiny_ndv", INT)],
        ("id",),
    )
    return Schema.from_tables([table])


@pytest.fixture(scope="module")
def stats():
    catalog = StatsCatalog()
    catalog.set_table("t", synthesize_table(1_000_000, {
        "id": SyntheticColumn(ndv=-1, lo=1, hi=1_000_000),
        "hi_ndv": SyntheticColumn(ndv=100_000),
        "mid_ndv": SyntheticColumn(ndv=1_000),
        "lo_ndv": SyntheticColumn(ndv=10),
        "tiny_ndv": SyntheticColumn(ndv=2),
    }))
    return catalog


SQL = (
    "SELECT id FROM t WHERE hi_ndv = 1 AND mid_ndv = 2 "
    "AND lo_ndv = 3 AND tiny_ndv = 4"
)


def orders_for(schema, stats, threshold):
    gen = CandidateGenerator(
        schema, stats, AimConfig(ipp_relaxation_rows=threshold)
    )
    info = analyze_query(parse(SQL), schema)
    return gen.generate_for_query(info, MODE_NON_COVERING)


def test_no_relaxation_keeps_all_ipp_columns(schema, stats):
    orders = orders_for(schema, stats, None)
    widths = {po.width for po in orders}
    assert 4 in widths


def test_relaxation_drops_redundant_columns(schema, stats):
    """hi_ndv alone matches ~10 rows; with threshold 100 the other three
    columns add width without additive selectivity and are dropped."""
    orders = orders_for(schema, stats, 100.0)
    assert all(po.width <= 2 for po in orders)
    assert any(po.columns == {"hi_ndv"} for po in orders)


def test_relaxation_keeps_enough_columns_for_target(schema, stats):
    """With threshold 1, one column (10 rows) is not enough: the next
    most selective column joins until ~1 row is reached."""
    orders = orders_for(schema, stats, 1.0)
    widest = max(po.width for po in orders)
    assert widest >= 2
    assert any({"hi_ndv", "mid_ndv"} <= po.columns for po in orders)


def test_relaxation_never_empties_the_prefix(schema, stats):
    orders = orders_for(schema, stats, 1e12)   # absurdly lax threshold
    assert all(po.width >= 1 for po in orders)


def test_relaxation_smaller_candidates_same_query_service(schema, stats):
    """The relaxed candidate still serves the query (its columns are a
    subset of the query's IPP columns)."""
    orders = orders_for(schema, stats, 100.0)
    query_cols = {"hi_ndv", "mid_ndv", "lo_ndv", "tiny_ndv"}
    assert all(po.columns <= query_cols for po in orders)


def test_advisor_config_plumbs_through(db):
    from repro.core import AimAdvisor, AimConfig
    from repro.workload import Workload

    w = Workload.from_sql(
        [("SELECT name FROM users WHERE city = 'c1' AND age = 30", 10.0)]
    )
    relaxed = AimAdvisor(
        db, AimConfig(ipp_relaxation_rows=1000.0, covering_phase=False)
    ).recommend(w, 50 << 20)
    # city alone leaves ~50 rows <= 1000: the age column is dropped.
    assert all(idx.width == 1 for idx in relaxed.indexes)
