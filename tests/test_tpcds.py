"""TPC-DS workload package tests."""

import pytest

from repro.optimizer import CostEvaluator
from repro.workloads.tpcds import row_counts, tpcds_database, tpcds_workload


@pytest.fixture(scope="module")
def dsdb():
    return tpcds_database(scale_factor=10)


def test_row_counts_scale():
    sf1 = row_counts(1)
    sf10 = row_counts(10)
    assert sf10["store_sales"] == 10 * sf1["store_sales"]
    assert sf10["date_dim"] == sf1["date_dim"]       # fixed dimension
    assert sf10["customer_demographics"] == sf1["customer_demographics"]


def test_schema_tables(dsdb):
    assert len(dsdb.schema.tables) == 11
    assert dsdb.stats.row_count("store_sales") == 28_804_040


def test_all_queries_parse_and_plan(dsdb):
    workload = tpcds_workload()
    assert len(workload) == 15
    evaluator = CostEvaluator(dsdb)
    for query in workload:
        assert evaluator.cost(query.sql) > 0, query.name


def test_queries_are_star_joins(dsdb):
    evaluator = CostEvaluator(dsdb)
    joins = 0
    for query in tpcds_workload():
        info = evaluator.analyze(query.sql)
        if len(info.bindings) > 1:
            joins += 1
            assert any(info.joins.values())
    assert joins >= 12


def test_aim_improves_tpcds(dsdb):
    """The paper: TPC-DS "followed the same trend" as TPC-H/JOB."""
    from repro.baselines import AimAlgorithm

    result = AimAlgorithm(dsdb).select(tpcds_workload(), 10 << 30)
    assert result.relative_cost < 0.8
    assert result.runtime_seconds < 30
