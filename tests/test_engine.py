"""Database facade tests."""

import pytest

from repro.catalog import CatalogError, Index
from repro.engine import Database, INNODB, INNODB_HDD, ROCKSDB

from .conftest import make_user_rows, users_table


def test_load_and_analyze(db):
    assert db.stats.row_count("users") == 500
    assert db.stats.row_count("orders") == 3000
    assert db.stats.table("users").column("city").ndv == 10


def test_create_materialized_index_builds_structure(db):
    idx = db.create_index(Index("users", ("city",)))
    storage = db.storage["users"]
    assert storage.get_index(idx.name) is not None


def test_dataless_index_is_not_a_catalog_entry(db):
    """A hypothetical index is a planner argument only: the schema and the
    database reject it and leave catalog, storage and version as they were."""
    idx = Index("users", ("city",), dataless=True)
    version = db.schema.index_version
    with pytest.raises(CatalogError):
        db.schema.add_index(idx)
    with pytest.raises(CatalogError):
        db.create_index(idx)
    assert db.schema.index_version == version
    assert db.schema.indexes() == []
    assert not db.storage["users"].secondary


def test_drop_index(indexed_db):
    indexed_db.drop_index("idx_users_city_age")
    assert indexed_db.schema.get_index("idx_users_city_age") is None
    assert indexed_db.storage["users"].get_index("idx_users_city_age") is None


def test_drop_all_secondary_indexes(indexed_db):
    dropped = indexed_db.drop_all_secondary_indexes()
    assert len(dropped) == 3
    assert indexed_db.schema.indexes() == []


def test_index_size_scales_with_rows_and_width(db):
    narrow = db.index_size_bytes(Index("users", ("age",)))
    wide = db.index_size_bytes(Index("users", ("age", "name")))
    assert 0 < narrow < wide
    assert db.total_secondary_index_bytes() == 0


def test_table_size_bytes(db):
    assert db.table_size_bytes("users") > 0


def test_stats_clone_shares_stats_owns_indexes(db):
    clone = db.stats_clone()
    clone.create_index(Index("users", ("city",)))
    assert db.schema.indexes() == []
    assert clone.stats is db.stats
    assert clone.storage is None


def test_full_clone_copies_rows(db):
    db.create_index(Index("users", ("city",)))
    clone = db.full_clone()
    assert clone.storage["users"].row_count == 500
    assert clone.storage["users"].get_index("idx_users_city") is not None
    # Mutating the clone leaves the source untouched.
    clone.storage["users"].delete_row(next(iter(clone.storage["users"].rows)))
    assert db.storage["users"].row_count == 500


def test_clones_plan_with_the_source_switches(db):
    """A skip-scan plan on the source is the plan on either clone."""
    from repro.optimizer import Optimizer, OptimizerSwitches

    db.create_index(Index("users", ("city", "age")))
    db.switches = OptimizerSwitches(skip_scan=True)
    sql = "SELECT age FROM users WHERE age = 30"
    assert Optimizer(db).explain(sql).steps[0].path.skip_scan
    for clone in (db.stats_clone(), db.full_clone()):
        assert clone.switches == db.switches
        assert Optimizer(clone).explain(sql).steps[0].path.skip_scan


def test_stats_only_database_rejects_loads():
    stats_db = Database.from_tables([users_table()], with_storage=False)
    with pytest.raises(RuntimeError):
        stats_db.load_rows("users", make_user_rows(3))
    with pytest.raises(RuntimeError):
        stats_db.analyze()


def test_engine_profiles_differ():
    assert ROCKSDB.write_amplification < INNODB.write_amplification
    assert INNODB_HDD.random_page_cost > INNODB.random_page_cost


def test_pages_for_and_btree_height():
    assert INNODB.pages_for(0, 100) == 0
    assert INNODB.pages_for(1, 100) == 1
    assert INNODB.pages_for(10_000, INNODB.page_size) == 10_000
    assert INNODB.btree_height(1) == 1
    assert INNODB.btree_height(10_000_000) >= 2
