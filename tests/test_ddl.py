"""DDL parser tests."""

import pytest

from repro.catalog import TypeKind
from repro.sqlparser.ddl import DdlError, parse_ddl


def test_basic_create_table():
    ddl = """
    CREATE TABLE users (
        id BIGINT NOT NULL,
        name VARCHAR(40),
        age INT,
        PRIMARY KEY (id)
    );
    """
    parsed = parse_ddl(ddl)
    assert len(parsed.tables) == 1
    table = parsed.tables[0]
    assert table.name == "users"
    assert table.primary_key == ("id",)
    assert table.column("name").ctype.kind is TypeKind.STRING
    assert table.column("age").ctype.kind is TypeKind.INTEGER
    assert not table.column("id").nullable
    assert table.column("name").nullable


def test_inline_primary_key():
    parsed = parse_ddl("CREATE TABLE t (pk INT PRIMARY KEY, v INT);")
    assert parsed.tables[0].primary_key == ("pk",)


def test_leading_id_convention():
    parsed = parse_ddl("CREATE TABLE t (id INT, v INT);")
    assert parsed.tables[0].primary_key == ("id",)


def test_missing_pk_raises():
    with pytest.raises(DdlError):
        parse_ddl("CREATE TABLE t (a INT, b INT);")


def test_composite_primary_key():
    parsed = parse_ddl(
        "CREATE TABLE lineitem (l_orderkey BIGINT, l_linenumber INT, "
        "qty INT, PRIMARY KEY (l_orderkey, l_linenumber));"
    )
    assert parsed.tables[0].primary_key == ("l_orderkey", "l_linenumber")


def test_type_mapping():
    parsed = parse_ddl(
        "CREATE TABLE t (id INT, a DECIMAL(10, 2), b DOUBLE, c DATE, "
        "d TIMESTAMP, e BOOLEAN, f TEXT, g CHAR(3), h UNKNOWNTYPE);"
    )
    table = parsed.tables[0]
    assert table.column("a").ctype.kind is TypeKind.DECIMAL
    assert table.column("b").ctype.kind is TypeKind.FLOAT
    assert table.column("c").ctype.kind is TypeKind.DATE
    assert table.column("d").ctype.kind is TypeKind.DATETIME
    assert table.column("e").ctype.kind is TypeKind.BOOLEAN
    assert table.column("g").ctype.width == 3
    assert table.column("h").ctype.kind is TypeKind.STRING


def test_varchar_width_is_average():
    parsed = parse_ddl("CREATE TABLE t (id INT, v VARCHAR(100));")
    assert parsed.tables[0].column("v").ctype.width == 50


def test_column_attributes_skipped():
    parsed = parse_ddl(
        "CREATE TABLE t (id BIGINT NOT NULL AUTO_INCREMENT, "
        "v INT DEFAULT 5, w VARCHAR(8) DEFAULT 'x' NOT NULL);"
    )
    table = parsed.tables[0]
    assert not table.column("w").nullable


def test_create_index():
    parsed = parse_ddl(
        "CREATE TABLE t (id INT, a INT, b INT);"
        "CREATE INDEX idx_ab ON t (a, b);"
        "CREATE UNIQUE INDEX ON t (b);"
    )
    assert len(parsed.indexes) == 2
    assert parsed.indexes[0].columns == ("a", "b")
    assert parsed.indexes[1].unique


def test_to_schema_registers_everything():
    parsed = parse_ddl(
        "CREATE TABLE t (id INT, a INT); CREATE INDEX ON t (a);"
    )
    schema = parsed.to_schema()
    assert schema.table("t")
    assert len(schema.indexes("t")) == 1


def test_unsupported_create_raises():
    with pytest.raises(DdlError):
        parse_ddl("CREATE VIEW v (a INT);")


@pytest.mark.parametrize("length", ["?", "n", ""])
def test_type_length_must_be_a_number(length):
    with pytest.raises(DdlError, match="expected a length"):
        parse_ddl(f"CREATE TABLE t (id INT PRIMARY KEY, b VARCHAR({length}))")
