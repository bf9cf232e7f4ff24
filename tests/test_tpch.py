"""TPC-H workload package tests."""

import hashlib
import tracemalloc
from itertools import groupby
from pathlib import Path

import pytest

from repro.catalog import Index
from repro.executor import Executor
from repro.optimizer import CostEvaluator
from repro.sqlparser import parse
from repro.workloads.tpch import (
    day,
    load_tpch,
    row_counts,
    tpch_database,
    tpch_workload,
)

from .conftest import TUNE_SERVE_INDEXES


@pytest.fixture(scope="module")
def db10():
    return tpch_database(scale_factor=10)


@pytest.fixture(scope="module")
def tiny():
    return load_tpch(scale_factor=0.002, seed=1)


def test_row_counts_scale():
    sf1 = row_counts(1)
    sf10 = row_counts(10)
    assert sf1["lineitem"] == 6_000_000
    assert sf10["lineitem"] == 60_000_000
    assert sf10["nation"] == 25   # fixed tables don't scale


def test_day_helper():
    assert day(1992, 1, 1) == 0
    assert day(1993, 1, 1) == 366   # 1992 is a leap year


def test_schema_has_eight_tables(db10):
    assert len(db10.schema.tables) == 8
    assert db10.stats.row_count("lineitem") == 60_000_000


def test_all_22_queries_parse_and_plan(db10):
    workload = tpch_workload()
    assert len(workload) == 22
    evaluator = CostEvaluator(db10)
    for query in workload:
        parse(query.sql)
        cost = evaluator.cost(query.sql)
        assert cost > 0, query.name


def test_seeded_instantiation_is_deterministic():
    a = tpch_workload(seed=5)
    b = tpch_workload(seed=5)
    c = tpch_workload(seed=6)
    assert [q.sql for q in a] == [q.sql for q in b]
    assert [q.sql for q in a] != [q.sql for q in c]


def test_queries_named_q1_to_q22():
    names = [q.name for q in tpch_workload()]
    assert names == [f"Q{i}" for i in range(1, 23)]


def test_datagen_loads_and_analyzes(tiny):
    assert tiny.storage["lineitem"].row_count == row_counts(0.002)["lineitem"]
    assert tiny.stats.row_count("orders") > 0
    assert tiny.stats.table("lineitem").column("l_shipmode").ndv == 7


def test_queries_execute_on_generated_data(tiny):
    executor = Executor(tiny)
    workload = tpch_workload()
    # Executable spot checks across shapes: scan+group, join, DNF monster.
    for name in ("Q1", "Q6", "Q12", "Q19"):
        query = workload.by_name(name)
        result = executor.execute(query.sql)
        assert result.metrics.rows_read > 0, name


def test_q1_aggregation_is_correct(tiny):
    executor = Executor(tiny)
    q1 = tpch_workload().by_name("Q1")
    result = executor.execute(q1.sql)
    cutoff = day(1998, 12, 1) - 90
    rows = [
        r for r in tiny.storage["lineitem"].rows.values()
        if r["l_shipdate"] <= cutoff
    ]
    expected_groups = {(r["l_returnflag"], r["l_linestatus"]) for r in rows}
    assert {(row[0], row[1]) for row in result.rows} == expected_groups
    total_count = sum(row[8] for row in result.rows)
    assert total_count == len(rows)


def test_advisor_runs_on_tpch(db10):
    from repro.baselines import AimAlgorithm

    result = AimAlgorithm(db10).select(tpch_workload(), 15 << 30)
    assert result.relative_cost < 0.95
    assert result.total_size_bytes <= 15 << 30
    assert result.runtime_seconds < 30


def test_full_clone_reproduces_every_index():
    """A MyShadow clone of stored TPC-H sf 0.01, with the five indexes the
    tune_serve benchmark creates, holds every PK and secondary index entry
    of the original, flat key and row id alike."""
    db = load_tpch(scale_factor=0.01, seed=1)
    for table, columns in TUNE_SERVE_INDEXES:
        db.create_index(Index(table, columns))
    clone = db.full_clone()
    assert sum(len(s.secondary) for s in clone.storage.values()) == 5
    for name, storage in db.storage.items():
        copy = clone.storage[name]
        assert copy.rows == storage.rows
        pairs = [(storage.pk_index, copy.pk_index)] + [
            (index, copy.secondary[index_name])
            for index_name, index in storage.secondary.items()
        ]
        assert set(copy.secondary) == set(storage.secondary)
        for original, cloned in pairs:
            assert len(original) == storage.row_count
            assert list(cloned.scan_all()) == list(original.scan_all())


# ---------------------------------------------------------------------------
# Pinned data: the generators draw column-wise but must store what the
# dict-per-row generators stored, row for row and statistic for statistic.


def stored_rows_digest(database):
    """Every stored row with its row id (the CI "Stored rows" digest)."""
    h = hashlib.sha256()
    for name in sorted(database.storage):
        columns = database.schema.table(name).column_names
        h.update(f"{name}:".encode())
        for row_id, row in database.storage[name].rows.items():
            h.update(repr((row_id, [row[c] for c in columns])).encode())
    return h.hexdigest()[:16]


def stats_digest(database):
    """Every table's row count and every column's NDV, NULL fraction and
    histogram sample (the CI "Stored rows" statistics digest)."""
    h = hashlib.sha256()
    for name in sorted(database.schema.tables):
        stats = database.stats.table(name)
        h.update(f"{name}:{stats.row_count}:".encode())
        for column in database.schema.table(name).column_names:
            c = stats.columns[column]
            h.update(repr((column, c.ndv, c.null_frac, c.histogram.values)).encode())
    return h.hexdigest()[:16]


@pytest.fixture(scope="module")
def sf001():
    return load_tpch(scale_factor=0.01, seed=1)


def test_load_tpch_rows_are_pinned(sf001):
    assert stored_rows_digest(sf001) == "5269f3e7b263746d"


def test_load_tpch_stats_are_pinned(sf001):
    assert stats_digest(sf001) == "5800c8ac3f83d675"


def test_repeated_generated_values_are_one_object_each(sf001):
    """A memory guard that holds on any machine: each of these columns
    holds one object per distinct value, and the foreign keys hold the
    objects of the key column they reference."""
    columns = {name: values for storage in sf001.storage.values()
               for name, values in storage.columns.items()}
    for name in ("l_partkey", "ps_partkey", "l_shipdate", "l_commitdate",
                 "l_receiptdate", "o_orderdate", "o_custkey", "o_clerk"):
        values = columns[name]
        assert len({id(v) for v in values}) == len(set(values)), name
    for name, key in [("l_partkey", "p_partkey"), ("ps_partkey", "p_partkey"),
                      ("o_custkey", "c_custkey")]:
        assert {id(v) for v in columns[name]} <= {id(v) for v in columns[key]}, name


def test_cli_stored_database_is_pinned():
    from repro.cli import build_stored_database

    schema = Path(__file__).parent.parent / "examples" / "cli_files" / "schema.sql"
    db = build_stored_database(schema.read_text(), {}, 1000, "innodb")
    assert (stored_rows_digest(db), stats_digest(db)) == (
        "6ca53a6cbf0323d3", "86178dc0c4b9184c")


def test_duplicate_primary_keys_tie_by_row_id_and_delete_together(sf001):
    """load_tpch's lineitem repeats primary keys (orders are drawn with
    replacement).  The PK index orders each tie by row id, a DELETE by
    the full PK removes every copy, and the indexes then equal a
    rebuild."""
    db = sf001.full_clone()
    db.create_index(Index("lineitem", ("l_partkey",)))
    storage = db.storage["lineitem"]
    runs = [
        [row_id for _key, row_id in run]
        for _key, run in groupby(storage.pk_index.scan_all(), key=lambda e: e[0])
    ]
    ties = [run for run in runs if len(run) > 1]
    assert sum(map(len, ties)) - len(ties) == 16_732
    assert all(run == sorted(run) for run in ties)
    victim = max(ties, key=len)
    orderkey, linenumber = (storage.columns[c][victim[0]]
                            for c in ("l_orderkey", "l_linenumber"))
    result = Executor(db).execute(
        f"DELETE FROM lineitem WHERE l_orderkey = {orderkey} "
        f"AND l_linenumber = {linenumber}")
    assert result.rowcount == len(victim)
    lo, hi = storage.pk_index.span((orderkey, linenumber))
    assert lo == hi
    indexes = [storage.pk_index, *storage.secondary.values()]
    maintained = [list(index.scan_all()) for index in indexes]
    assert all(len(entries) == storage.row_count for entries in maintained)
    storage.load([])   # rebuilds every index of the table
    assert [list(index.scan_all())
            for index in [storage.pk_index, *storage.secondary.values()]] == maintained


def test_an_index_entry_is_a_row_id(sf001):
    """CREATE INDEX keeps one row id per entry, no key object: building
    lineitem(l_partkey) allocates at most 12 bytes per entry, and
    dropping it frees them."""
    db = sf001.full_clone()
    index = Index("lineitem", ("l_partkey",))
    entries = db.storage["lineitem"].row_count
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        db.create_index(index)
        built = tracemalloc.get_traced_memory()[0] - start
        db.drop_index(index)
        dropped = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert built <= 12 * entries, built / entries
    assert dropped <= entries, dropped / entries


def test_load_tpch_rejects_a_scale_factor_with_no_supplier():
    with pytest.raises(ValueError):
        load_tpch(scale_factor=0.00005, seed=1)
