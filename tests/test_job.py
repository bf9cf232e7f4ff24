"""JOB workload package tests."""

import pytest

from repro.optimizer import CostEvaluator
from repro.workloads.job import ROW_COUNTS, job_database, job_workload


@pytest.fixture(scope="module")
def jdb():
    return job_database()


def test_schema_has_21_tables(jdb):
    assert len(jdb.schema.tables) == 21


def test_real_imdb_cardinalities(jdb):
    assert jdb.stats.row_count("cast_info") == ROW_COUNTS["cast_info"]
    assert jdb.stats.row_count("title") == 2_528_312


def test_all_families_parse_and_plan(jdb):
    workload = job_workload()
    assert len(workload) >= 20
    evaluator = CostEvaluator(jdb)
    for query in workload:
        cost = evaluator.cost(query.sql)
        assert cost > 0, query.name


def test_queries_are_multi_join(jdb):
    evaluator = CostEvaluator(jdb)
    for query in job_workload():
        info = evaluator.analyze(query.sql)
        assert len(info.bindings) >= 4, query.name
        assert any(info.joins.values()), query.name


def test_self_join_families_use_aliases(jdb):
    evaluator = CostEvaluator(jdb)
    workload = job_workload()
    info = evaluator.analyze(workload.by_name("33c").sql)
    tables = list(info.bindings.values())
    assert tables.count("title") == 2
    assert tables.count("kind_type") == 2


def test_aim_improves_job_strongly(jdb):
    """JOB is selective-join-heavy: indexes help by an order of magnitude
    (the Fig 4c shape)."""
    from repro.baselines import AimAlgorithm

    result = AimAlgorithm(jdb).select(job_workload(), 8 << 30)
    assert result.relative_cost < 0.3
