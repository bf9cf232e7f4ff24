"""ExecutionMetrics tests."""

import pytest

from repro.engine import ExecutionMetrics, INNODB


def test_cpu_seconds_components():
    m = ExecutionMetrics(seq_pages=10, rows_read=100)
    expected = 10 * INNODB.seq_page_cost + 100 * INNODB.cpu_tuple_cost
    assert m.cpu_seconds(INNODB) == pytest.approx(expected)


def test_random_pages_cost_more_than_seq():
    seq = ExecutionMetrics(seq_pages=10).cpu_seconds(INNODB)
    rand = ExecutionMetrics(random_pages=10).cpu_seconds(INNODB)
    assert rand > seq


def test_sort_cost_is_n_log_n():
    small = ExecutionMetrics(sort_rows=100).cpu_seconds(INNODB)
    big = ExecutionMetrics(sort_rows=10_000).cpu_seconds(INNODB)
    assert big > 100 * small / 100   # super-linear
    assert ExecutionMetrics(sort_rows=1).cpu_seconds(INNODB) == 0


def test_write_amplification_scales_maintenance():
    m = ExecutionMetrics(index_entries_written=10)
    innodb_cost = m.cpu_seconds(INNODB)
    from repro.engine import ROCKSDB

    assert m.cpu_seconds(ROCKSDB) < innodb_cost


def test_merge_accumulates():
    a = ExecutionMetrics(rows_read=5, seq_pages=1)
    b = ExecutionMetrics(rows_read=7, random_pages=2, rows_sent=3)
    a.merge(b)
    assert a.rows_read == 12
    assert a.random_pages == 2
    assert a.rows_sent == 3
