"""Catalog tests: types, tables, indexes, schemas."""

import pytest

from repro.catalog import (
    BIGINT,
    CatalogError,
    Column,
    INT,
    Index,
    Schema,
    Table,
    TypeKind,
    char,
    varchar,
)


def make_table():
    return Table(
        "t",
        [Column("id", BIGINT), Column("a", INT), Column("b", varchar(16))],
        ("id",),
    )


def test_type_widths():
    assert INT.width == 4
    assert BIGINT.width == 8
    assert varchar(33).width == 33
    assert char(5).kind is TypeKind.STRING


def test_table_row_width_includes_overhead():
    t = make_table()
    assert t.row_width == 8 + 4 + 16 + t.row_overhead


def test_table_column_lookup_and_error():
    t = make_table()
    assert t.column("a").ctype is INT
    assert t.has_column("b")
    with pytest.raises(CatalogError):
        t.column("missing")


def test_table_duplicate_columns_rejected():
    with pytest.raises(CatalogError):
        Table("t", [Column("a", INT), Column("a", INT)], ("a",))


def test_table_requires_primary_key():
    with pytest.raises(CatalogError):
        Table("t", [Column("a", INT)], ())
    with pytest.raises(CatalogError):
        Table("t", [Column("a", INT)], ("missing",))


def test_index_name_deterministic():
    idx = Index("t", ("a", "b"))
    assert idx.name == "idx_t_a_b"
    assert idx.width == 2


def test_index_rejects_empty_and_duplicates():
    with pytest.raises(ValueError):
        Index("t", ())
    with pytest.raises(ValueError):
        Index("t", ("a", "a"))


def test_index_prefix_relation():
    narrow = Index("t", ("a",))
    wide = Index("t", ("a", "b"))
    other = Index("t", ("b", "a"))
    assert narrow.is_prefix_of(wide)
    assert wide.is_prefix_of(wide)
    assert not wide.is_prefix_of(narrow)
    assert not narrow.is_prefix_of(other)
    assert not narrow.is_prefix_of(Index("u", ("a", "b")))


def test_index_dataless_transitions():
    idx = Index("t", ("a",), dataless=True)
    assert idx.materialized().dataless is False
    assert idx.materialized().name == idx.name
    assert idx.materialized().as_dataless() == idx


def test_index_entry_width_excludes_pk_duplicates():
    t = make_table()
    with_pk = Index("t", ("a",))
    including_pk = Index("t", ("a", "id"))
    # Both carry key + pk exactly once.
    assert with_pk.entry_width(t) == including_pk.entry_width(t)


def test_schema_add_and_lookup():
    schema = Schema.from_tables([make_table()])
    assert schema.table("t").name == "t"
    with pytest.raises(CatalogError):
        schema.table("nope")
    with pytest.raises(CatalogError):
        schema.add_table(make_table())


def test_schema_index_validation():
    schema = Schema.from_tables([make_table()])
    with pytest.raises(CatalogError):
        schema.add_index(Index("t", ("missing",)))
    with pytest.raises(CatalogError):
        schema.add_index(Index("unknown", ("a",)))


def test_schema_index_lifecycle():
    schema = Schema.from_tables([make_table()])
    idx = Index("t", ("a",))
    assert schema.add_index(idx) is idx
    assert schema.has_index(idx)
    assert schema.indexes("t") == [idx]
    # Re-adding is idempotent.
    version = schema.index_version
    assert schema.add_index(Index("t", ("a",))) is idx
    assert schema.index_version == version
    schema.drop_index(idx)
    assert not schema.has_index(idx)


def test_schema_copy_isolates_indexes():
    schema = Schema.from_tables([make_table()])
    clone = schema.copy()
    clone.add_index(Index("t", ("a",)))
    assert schema.indexes() == []
    assert len(clone.indexes()) == 1
