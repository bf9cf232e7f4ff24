"""TableStorage tests: row CRUD with index maintenance accounting."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog import Column, INT, Index, Table, varchar
from repro.engine import Database, ExecutionMetrics
from repro.engine.btree import unwrap_key, wrap_key
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


def test_secondary_index_orders_equal_keys_by_the_live_pk():
    """A secondary index stores no PK copy: equal keys are ordered by the
    PK its tail reads from the row, through out-of-order PK inserts,
    repeated values, a PK update, a key update and deletes."""
    storage = make_storage()
    idx = storage.build_index(Index("t", ("a",)))
    ids = {}
    for pk, a in [(5, 1), (3, 1), (9, 2), (1, 1), (7, 2), (4, 1), (8, None),
                  (2, None), (6, 1)]:
        ids[pk] = storage.insert_row({"id": pk, "a": a, "b": "x"})
    storage.update_row(ids[5], {"id": 0})   # moves to the front of its run
    storage.update_row(ids[9], {"a": 1})    # joins the run of 1s
    storage.delete_row(ids[4])
    assert idx.delete(ids[4]) is False   # already deleted
    expected = sorted(
        (wrap_key((row["a"],)) + wrap_key((row["id"],)), row_id)
        for row_id, row in storage.rows.items()
    )
    assert list(idx.scan_all()) == expected
    assert [rid for _k, rid in idx.scan_prefix((1,))] == [
        ids[5], ids[1], ids[3], ids[6], ids[9]]
    storage.drop_index("idx_t_a")
    assert list(storage.build_index(Index("t", ("a",))).scan_all()) == expected


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


def test_update_of_primary_key_rekeys_every_secondary_index():
    storage = make_storage()
    idx_a = storage.build_index(Index("t", ("a",)))
    rid = storage.insert_row({"id": 1, "a": 10, "b": "x"})
    metrics = ExecutionMetrics()
    storage.update_row(rid, {"id": 5}, metrics)
    assert [unwrap_key(k) for k, _ in idx_a.scan_all()] == [(10, 5)]
    assert metrics.index_entries_written == 4   # PK and idx_a, delete + insert
    storage.delete_row(rid)
    assert len(idx_a) == 0 and len(storage.pk_index) == 0


def test_load_builds_the_pk_and_every_secondary_index():
    storage = make_storage()
    storage.build_index(Index("t", ("a",)))
    storage.insert_row({"id": 9, "a": 1, "b": "z"})
    assert storage.load([{"id": 3, "a": 2}, {"id": 1, "a": 1, "b": "y"}]) == 2
    assert [unwrap_key(k) for k, _ in storage.pk_index.scan_all()] == [
        (1,), (3,), (9,)]
    assert [unwrap_key(k) for k, _ in storage.get_index("idx_t_a").scan_all()] == [
        (1, 1), (1, 9), (2, 3)]


def test_insert_row_rejects_an_unknown_column_and_writes_nothing():
    """A row naming a column the table lacks fails before anything is
    stored (a misspelt key would otherwise be dropped silently)."""
    storage = make_storage()
    storage.build_index(Index("t", ("a",)))
    storage.insert_row({"id": 1, "a": 7, "b": "x"})
    before = snapshot(storage)
    with pytest.raises(StorageError, match="'bogus'"):
        storage.insert_row({"id": 99, "b": "X", "bogus": 1, "zz": 2})
    assert snapshot(storage) == before
    assert storage.insert_row({"id": 99, "b": "X"}) == 1


def test_update_row_rejects_an_unknown_column_and_writes_nothing():
    storage = make_storage()
    storage.build_index(Index("t", ("a",)))
    rid = storage.insert_row({"id": 1, "a": 7, "b": "x"})
    before = snapshot(storage)
    with pytest.raises(StorageError, match="'nope'"):
        storage.update_row(rid, {"a": 5, "nope": 5, "zz": 1})
    assert snapshot(storage) == before
    storage.update_row(rid, {"a": 5})
    assert storage.get_row(rid) == {"id": 1, "a": 5, "b": "x"}


#: Probes of the widened column: NULL, numbers (bools as ints), strs.
PROBES = [None, 0, 1, 1.0, True, 2.5, 3, "", "s", "zz"]


def _span_rows(index, model_entries, prefix=(), low=None, high=None,
               low_inc=True, high_inc=True):
    """An index span's row ids, and the model's rows that match it."""
    lo, hi = index.span(prefix, low, high, low_inc, high_inc)
    k = len(prefix)
    expected = []
    for flat, row_id in model_entries:
        pairs = [flat[i:i + 2] for i in range(0, len(flat), 2)]
        if pairs[:k] != [wrap_key((v,)) for v in prefix]:
            continue
        if low is not None and (
            pairs[k] < wrap_key((low,))
            or (not low_inc and pairs[k] == wrap_key((low,)))
        ):
            continue
        if high is not None and (
            pairs[k] > wrap_key((high,))
            or (not high_inc and pairs[k] == wrap_key((high,)))
        ):
            continue
        expected.append(row_id)
    return index.rids[lo:hi], expected


@pytest.mark.parametrize("write", ["update", "insert"])
def test_index_follows_a_column_whose_kinds_widen_after_the_build(write):
    """A column of ints when its indexes were built takes a NULL, a bool
    and a str (and a float) by UPDATE or INSERT: after each write the
    indexes equal the model, and IS NULL, equality and range spans on
    the column return the model's rows."""
    storage = make_storage()
    values = [3, 1, 2, 1, 0, 3, 2, 1]
    storage.load_columns({"id": list(range(8)), "a": values, "b": ["x"] * 8})
    model = {i: {"id": i, "a": a, "b": "x"} for i, a in enumerate(values)}
    single = storage.build_index(Index("t", ("a",)))
    double = storage.build_index(Index("t", ("b", "a")))
    assert storage.kinds["a"] == {int}
    for step, value in enumerate([None, True, "s", 2.5, None, "s"]):
        if write == "update":
            storage.update_row(step, {"a": value})
            model[step]["a"] = value
        else:
            row = {"id": 100 + step, "a": value, "b": "x"}
            model[storage.insert_row(row)] = row
        entries_a = _model_index(model, ("a",))
        assert list(single.scan_all()) == entries_a
        assert list(double.scan_all()) == _model_index(model, ("b", "a"))
        assert list(storage.pk_index.scan_all()) == _model_index(model, ())
        for probe in PROBES:
            got, expected = _span_rows(single, entries_a, (probe,))
            assert got == expected, probe
            got, expected = _span_rows(
                double, _model_index(model, ("b", "a")), ("x", probe))
            assert got == expected, probe
        for low, high in [(None, None), (1, 3), (None, 1), (0, "s"),
                          (True, 2.5), ("", None), (None, None)]:
            for low_inc in (True, False):
                for high_inc in (True, False):
                    got, expected = _span_rows(
                        single, entries_a, (), low, high, low_inc, high_inc)
                    assert got == expected, (low, high, low_inc, high_inc)


def test_nan_key_inserted_then_deleted_leaves_the_indexes_as_a_rebuild():
    """NaN orders against nothing, so a NaN key is inserted where bisect
    leaves it; deleting the row must still remove its entries."""
    storage = make_storage()
    ids = random.Random(5).sample(range(40), 40)
    storage.load_columns({"id": ids, "a": [i % 7 / 2 for i in range(40)],
                          "b": ["x"] * 40})
    index = storage.build_index(Index("t", ("a",)))
    before = entries(storage.pk_index), entries(index)
    row_id = storage.insert_row({"id": -1, "a": float("nan"), "b": "n"})
    assert len(index) == len(storage.pk_index) == 41
    storage.delete_row(row_id)
    assert (entries(storage.pk_index), entries(index)) == before
    storage.drop_index("idx_t_a")
    storage.load([])   # rebuilds the PK index
    rebuilt = storage.build_index(Index("t", ("a",)))
    assert (entries(storage.pk_index), entries(rebuilt)) == before


def snapshot(storage):
    return (
        {name: list(values) for name, values in storage.columns.items()},
        bytes(storage.alive), storage.row_count, entries(storage.pk_index),
        {name: entries(index) for name, index in storage.secondary.items()},
    )


@pytest.mark.parametrize("columns", [
    {"id": [4, 5, 6], "a": [10, 20]},                  # ragged
    {"id": [4, 5], "a": [10, 20], "bogus": [1, 2]},    # unknown column
], ids=["ragged", "unknown"])
def test_load_columns_rejects_bad_input_and_writes_nothing(columns):
    storage = make_storage()
    storage.build_index(Index("t", ("a",)))
    storage.load_columns({"id": [1, 2], "a": [7, 8], "b": ["x", "y"]})
    before = snapshot(storage)
    with pytest.raises(StorageError):
        storage.load_columns(columns)
    assert snapshot(storage) == before
    # The table still takes rows that line up.
    assert storage.load_columns({"id": [3], "a": [9]}) == 1
    assert storage.get_row(2) == {"id": 3, "a": 9, "b": None}


def test_load_rejects_a_row_with_an_unknown_column_and_writes_nothing():
    """Any row naming a column the table lacks fails the load before its
    first row is written (a misspelt key would otherwise store NULL)."""
    db = Database.from_tables([make_storage().table])
    db.load_rows("t", [{"id": 1, "a": 7, "b": "x"}])
    before = snapshot(db.storage["t"])
    with pytest.raises(StorageError, match="'aa'"):
        db.load_rows("t", [{"id": 2, "a": 2}, {"id": 3, "aa": 5}])
    assert snapshot(db.storage["t"]) == before
    assert db.load_rows("t", [{"id": 3, "a": 5}]) == 1


def test_database_load_columns_equals_load_rows():
    table = make_storage().table
    by_rows, by_columns = (Database.from_tables([table]) for _ in range(2))
    rows = [{"id": 2, "a": 5, "b": "q"}, {"id": 1, "a": None}]
    assert by_rows.load_rows("t", rows) == 2
    assert by_columns.load_columns("t", {"id": [2, 1], "a": [5, None],
                                         "b": ["q", None]}) == 2
    assert snapshot(by_columns.storage["t"]) == snapshot(by_rows.storage["t"])


# ---------------------------------------------------------------------------
# built indexes equal incrementally maintained ones
#
# Small value domains give duplicate PK values and equal keys; the columns
# mix NULL, bools, ints, floats and strs as loads and DML may.

cell = (
    st.none()
    | st.booleans()
    | st.integers(-2, 2)
    | st.floats(-2, 2, allow_nan=False)
    | st.text(alphabet="ab", max_size=1)
)
pk_cell = st.integers(0, 3) | st.none()
rows = st.fixed_dictionaries({"id": pk_cell, "a": cell, "b": cell})
ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete"]),
        rows,
        st.integers(0, 1000),
        st.sampled_from([("id",), ("a",), ("b",), ("id", "a"), ("a", "b")]),
    ),
    max_size=30,
)
INDEXES = [Index("t", ("a",)), Index("t", ("b", "a")), Index("t", ("a", "id"))]


def entries(index):
    return [repr(entry) for entry in index.scan_all()]


@settings(max_examples=150, deadline=None)
@given(st.lists(rows, max_size=12), ops)
def test_built_indexes_equal_incrementally_maintained_ones(loaded, script):
    storage = make_storage()
    for index in INDEXES:
        storage.build_index(index)
    storage.load(loaded)
    for op, row, pick, columns in script:
        ids = sorted(storage.rows)
        if op == "insert" or not ids:
            storage.insert_row(row)
        elif op == "update":
            storage.update_row(ids[pick % len(ids)], {c: row[c] for c in columns})
        else:
            storage.delete_row(ids[pick % len(ids)])
    incremental = {index.name: entries(storage.get_index(index.name))
                   for index in INDEXES}
    for index in INDEXES:
        storage.drop_index(index)
        assert entries(storage.build_index(index)) == incremental[index.name]
    pk = entries(storage.pk_index)
    storage.load([])
    assert entries(storage.pk_index) == pk
    for index in INDEXES:
        assert entries(storage.get_index(index.name)) == incremental[index.name]


# ---------------------------------------------------------------------------
# differential: column storage against a plain dict of rows
#
# A seeded sequence of inserts, updates (PK changes included), deletes,
# loads after deletes and full clones runs on a stored table with two
# secondary indexes and, in step, on ``{row id: row}``.

DIFF_INDEXES = [Index("t", ("a",)), Index("t", ("b", "a"))]
DIFF_VALUES = [None, 0, 1, 2, 2.5, "x", "y"]


def _diff_row(rng):
    return {"id": rng.randrange(6), "a": rng.choice(DIFF_VALUES),
            "b": rng.choice(DIFF_VALUES)}


def _model_index(model, columns):
    """The entries of an index on *columns* over the model, each key
    followed by the PK, sorted as flat keys, then row id."""
    return sorted(
        (wrap_key(tuple(row[c] for c in columns) + (row["id"],)), row_id)
        for row_id, row in model.items()
    )


def _assert_matches(storage, model):
    assert storage.rows == model
    assert dict(storage.rows.items()) == model
    assert list(storage.rows) == list(model)
    assert storage.row_count == len(model) == len(storage.rows)
    for name in ("id", "a", "b"):
        assert storage.column_values(name) == [row[name] for row in model.values()]
        # Kernels compare a column bare only when kinds covers its types.
        assert {type(row[name]) for row in model.values()} <= storage.kinds[name]
    assert list(storage.pk_index.scan_all()) == _model_index(model, ())
    for index in DIFF_INDEXES:
        built = storage.get_index(index.name)
        assert list(built.scan_all()) == _model_index(model, index.columns)


def _index_state(storage):
    return [list(storage.pk_index.scan_all())] + [
        list(storage.get_index(i.name).scan_all()) for i in DIFF_INDEXES
    ]


def test_column_storage_matches_a_dict_model_step_by_step():
    rng = random.Random(2024)
    db = Database.from_tables([make_storage().table])
    for index in DIFF_INDEXES:
        db.create_index(index)
    storage = db.storage["t"]
    model: dict[int, dict] = {}
    next_id = 0
    ops = ["insert"] * 8 + ["update"] * 6 + ["delete"] * 5 + ["load", "clone"]
    seen = set()
    for _step in range(400):
        op = rng.choice(ops) if model else "insert"
        seen.add(op)
        if op == "insert":
            row = _diff_row(rng)
            assert storage.insert_row(row) == next_id
            model[next_id] = row
            next_id += 1
        elif op == "update":
            row_id = rng.choice(list(model))
            changes = {c: v for c, v in _diff_row(rng).items() if rng.random() < 0.5}
            storage.update_row(row_id, changes)
            model[row_id] = {**model[row_id], **changes}
        elif op == "delete":
            row_id = rng.choice(list(model))
            storage.delete_row(row_id)
            del model[row_id]
            assert row_id not in storage.rows
            with pytest.raises(StorageError):
                storage.get_row(row_id)
        elif op == "load":
            rows = [_diff_row(rng) for _ in range(rng.randrange(4))]
            assert storage.load(rows) == len(rows)
            for row in rows:
                model[next_id] = row
                next_id += 1
        else:
            clone_db = db.full_clone()
            clone = clone_db.storage["t"]
            # The clone compacts row ids: its rows are the model's, renumbered.
            cloned = dict(enumerate(model.values()))
            _assert_matches(clone, cloned)
            before = _index_state(storage)
            # Changing the clone leaves the source as it was.
            first, last = next(iter(cloned)), max(cloned)
            changes = {"id": 99, "a": "changed"}
            clone.update_row(first, changes)
            cloned[first] = {**cloned[first], **changes}
            clone.delete_row(last)
            del cloned[last]
            row = _diff_row(rng)
            assert clone.insert_row(row) == len(model)
            cloned[len(model)] = row
            assert storage.rows == model
            assert _index_state(storage) == before
            _assert_matches(clone, cloned)
            # Go on with the clone as the table under test.
            db, storage, model, next_id = clone_db, clone, cloned, len(model) + 1
        _assert_matches(storage, model)
    assert seen == set(ops)
