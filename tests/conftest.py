"""Shared fixtures: small stored databases with deterministic data."""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from repro.catalog import Column, Index, Table, INT, varchar
from repro.engine import Database


def users_table() -> Table:
    return Table(
        "users",
        [
            Column("id", INT),
            Column("age", INT),
            Column("city", varchar(12)),
            Column("name", varchar(20)),
            Column("score", INT, nullable=True),
        ],
        ("id",),
    )


def orders_table() -> Table:
    return Table(
        "orders",
        [
            Column("oid", INT),
            Column("user_id", INT),
            Column("amount", INT),
            Column("status", varchar(8)),
            Column("created", INT),
        ],
        ("oid",),
    )


def make_user_rows(n: int = 500, seed: int = 7) -> list[dict]:
    rng = random.Random(seed)
    return [
        {
            "id": i,
            "age": rng.randint(18, 80),
            "city": f"c{rng.randint(0, 9)}",
            "name": f"n{i}",
            "score": None if rng.random() < 0.1 else rng.randint(0, 100),
        }
        for i in range(n)
    ]


def make_order_rows(n: int = 3000, n_users: int = 500, seed: int = 11) -> list[dict]:
    rng = random.Random(seed)
    return [
        {
            "oid": i,
            "user_id": rng.randrange(n_users),
            "amount": rng.randint(1, 1000),
            "status": rng.choice(["new", "paid", "done"]),
            "created": rng.randint(0, 1_000_000),
        }
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def user_rows() -> list[dict]:
    return make_user_rows()


@pytest.fixture(scope="module")
def order_rows() -> list[dict]:
    return make_order_rows()


@pytest.fixture()
def db(user_rows, order_rows) -> Database:
    """A small stored two-table database, analyzed, no secondary indexes."""
    database = Database.from_tables([users_table(), orders_table()])
    database.load_rows("users", [dict(r) for r in user_rows])
    database.load_rows("orders", [dict(r) for r in order_rows])
    database.analyze()
    return database


@pytest.fixture()
def indexed_db(db) -> Database:
    """The same database with a few materialized secondary indexes."""
    db.create_index(Index("users", ("city", "age")))
    db.create_index(Index("orders", ("user_id", "status")))
    db.create_index(Index("orders", ("created",)))
    return db


#: The secondary indexes the tune_serve benchmark's tuner creates on stored
#: TPC-H sf 0.01 (``perfbench/``), as ``(table, columns)``.
TUNE_SERVE_INDEXES = [
    ("lineitem", ("l_partkey",)),
    ("lineitem", ("l_suppkey", "l_quantity")),
    ("orders", ("o_custkey",)),
    ("orders", ("o_clerk", "o_orderpriority")),
    ("orders", ("o_orderdate",)),
]


def serve_inputs():
    """perfbench's seeded tune_serve inputs (``perfbench/inputs.py``)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module
