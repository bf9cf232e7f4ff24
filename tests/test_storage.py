"""TableStorage tests: row CRUD with index maintenance accounting."""

import pytest

from repro.catalog import Column, INT, Index, Table, varchar
from repro.engine import ExecutionMetrics
from repro.engine.btree import unwrap_key
from repro.engine.storage import StorageError, TableStorage


def make_storage():
    table = Table(
        "t",
        [Column("id", INT), Column("a", INT), Column("b", varchar(8))],
        ("id",),
    )
    return TableStorage(table)


def test_insert_assigns_row_ids_and_maintains_pk():
    storage = make_storage()
    rid = storage.insert_row({"id": 1, "a": 10, "b": "x"})
    assert storage.get_row(rid)["a"] == 10
    assert len(storage.pk_index) == 1


def test_insert_counts_maintenance_entries():
    storage = make_storage()
    storage.build_index(Index("t", ("a",)))
    metrics = ExecutionMetrics()
    storage.insert_row({"id": 1, "a": 10, "b": "x"}, metrics)
    assert metrics.index_entries_written == 2   # PK + secondary


def test_missing_columns_stored_as_null():
    storage = make_storage()
    rid = storage.insert_row({"id": 1})
    assert storage.get_row(rid)["a"] is None


def test_delete_row_maintains_all_indexes():
    storage = make_storage()
    idx = storage.build_index(Index("t", ("a",)))
    rid = storage.insert_row({"id": 1, "a": 10, "b": "x"})
    storage.delete_row(rid)
    assert storage.row_count == 0
    assert len(idx) == 0
    with pytest.raises(StorageError):
        storage.delete_row(rid)


def test_update_only_touches_affected_indexes():
    storage = make_storage()
    idx_a = storage.build_index(Index("t", ("a",)))
    idx_b = storage.build_index(Index("t", ("b",)))
    rid = storage.insert_row({"id": 1, "a": 10, "b": "x"})
    storage.update_row(rid, {"a": 20})
    assert [unwrap_key(k)[0] for k, _ in idx_a.scan_all()] == [20]
    assert [unwrap_key(k)[0] for k, _ in idx_b.scan_all()] == ["x"]


def test_update_missing_row_raises():
    storage = make_storage()
    with pytest.raises(StorageError):
        storage.update_row(99, {"a": 1})


def test_build_index_over_existing_rows():
    storage = make_storage()
    for i in range(5):
        storage.insert_row({"id": i, "a": 5 - i, "b": "x"})
    idx = storage.build_index(Index("t", ("a",)))
    values = [unwrap_key(k)[0] for k, _ in idx.scan_all()]
    assert values == [1, 2, 3, 4, 5]


def test_build_index_is_idempotent():
    storage = make_storage()
    first = storage.build_index(Index("t", ("a",)))
    second = storage.build_index(Index("t", ("a",)))
    assert first is second


def test_build_index_wrong_table_rejected():
    storage = make_storage()
    with pytest.raises(StorageError):
        storage.build_index(Index("u", ("a",)))


def test_drop_index():
    storage = make_storage()
    storage.build_index(Index("t", ("a",)))
    storage.drop_index("idx_t_a")
    assert storage.get_index("idx_t_a") is None


def test_column_values():
    storage = make_storage()
    storage.insert_row({"id": 1, "a": 10, "b": "x"})
    storage.insert_row({"id": 2, "a": 20, "b": "y"})
    assert sorted(storage.column_values("a")) == [10, 20]


def test_secondary_key_includes_pk_for_stability():
    storage = make_storage()
    idx = storage.build_index(Index("t", ("a",)))
    storage.insert_row({"id": 2, "a": 1, "b": "x"})
    storage.insert_row({"id": 1, "a": 1, "b": "y"})
    keys = [unwrap_key(k) for k, _ in idx.scan_all()]
    assert keys == [(1, 1), (1, 2)]   # same a, ordered by appended PK


def test_build_index_matches_insert_path_with_nulls():
    values = [3, None, 1, None, 3, 2, None, 1]
    built = make_storage()
    for i, a in enumerate(values):
        built.insert_row({"id": i, "a": a, "b": None if a is None else "x"})
    idx_built = built.build_index(Index("t", ("a", "b")))
    inserted = make_storage()
    idx_inserted = inserted.build_index(Index("t", ("a", "b")))
    for i, a in enumerate(values):
        inserted.insert_row({"id": i, "a": a, "b": None if a is None else "x"})
    order = [rid for _k, rid in idx_built.scan_all()]
    assert order == [rid for _k, rid in idx_inserted.scan_all()]
    assert order[:3] == [1, 3, 6]   # NULL keys first, tied by PK
