"""Counter pin: the executor's cost accounting must not drift.

Executed work feeds ``ExecutionMetrics.cpu_seconds`` -- the workload
monitor's ``cpu_avg``, AIM's benefit ranking and the serve benchmark's
``cost_per_stmt``.  A faster executor must therefore reproduce every
counter exactly.  This test executes a fixed corpus -- seeded qa cases on
their stored databases (with and without a secondary index) plus
hand-written joins, aggregates and DML over the shared users/orders
tables -- once plainly and once with ``analyze=True``, and digests each
statement's ``ExecutionMetrics.as_dict()`` and every EXPLAIN ANALYZE
node's rows, loops, rows_scanned and pages_read.

``PINNED`` was computed by running this module (``python -m
tests.test_executor_counters``) in a separate checkout of the commit
before expression compilation, whose executor interpreted the AST per
row.  Only a deliberate change to the cost model may update it.
``SERVED_DIGESTS`` pins the rows and counters of two tune_serve windows
served on stored TPC-H.
"""

from __future__ import annotations

import hashlib
import json

import pytest

import repro.executor.executor as executor_module
from repro.catalog import Index
from repro.engine import Database
from repro.executor import Executor
from repro.optimizer.what_if import CostEvaluator
from repro.qa.generator import generate_case
from repro.qa.oracles import _first_sargable
from repro.sqlparser import ast, parse
from repro.workload import MonitoredExecutor
from repro.workloads.tpch.datagen import load_tpch

from .conftest import (
    TUNE_SERVE_INDEXES,
    make_order_rows,
    make_user_rows,
    orders_table,
    serve_inputs,
    users_table,
)

QA_SEEDS = range(40)

#: Joins (hash and nested-loop), cross-binding conjuncts, grouping,
#: ordering, DISTINCT, LIMIT early exit, IN lists and DML.
HANDWRITTEN = (
    "SELECT u.name, o.amount FROM users u, orders o "
    "WHERE u.id = o.user_id AND o.status = 'paid' AND u.city = 'c1'",
    "SELECT u.id, o.oid FROM users u, orders o "
    "WHERE u.id = o.user_id AND (u.age > 70 OR o.amount < 20)",
    "SELECT COUNT(*) FROM users u JOIN orders o ON u.id = o.user_id "
    "WHERE o.amount + u.age > 900",
    "SELECT * FROM users WHERE city = 'c3' AND score IS NULL",
    "SELECT * FROM users u, orders o WHERE u.id = o.user_id AND o.oid < 40",
    "SELECT o.status, COUNT(*), SUM(o.amount), MAX(u.age) FROM users u, orders o "
    "WHERE u.id = o.user_id GROUP BY o.status HAVING COUNT(*) > 10 "
    "ORDER BY o.status",
    "SELECT city, AVG(score) FROM users GROUP BY city ORDER BY AVG(score) DESC",
    "SELECT DISTINCT city FROM users WHERE age BETWEEN 30 AND 40 ORDER BY city",
    "SELECT id, age FROM users ORDER BY age DESC, id LIMIT 7 OFFSET 3",
    "SELECT oid FROM orders ORDER BY created LIMIT 5",
    "SELECT oid FROM orders WHERE user_id IN (3, 9, 27) AND status != 'new'",
    "SELECT name FROM users WHERE name LIKE 'n1_' OR score <=> NULL",
    "SELECT amount * 2, amount / 0, amount % 7 FROM orders WHERE oid < 30",
    "SELECT COUNT(*) FROM orders WHERE status NOT IN ('paid') "
    "AND NOT (amount > 500)",
    "UPDATE orders SET amount = amount + 1 WHERE user_id = 17",
    "UPDATE users SET score = 5 WHERE city = 'c2' AND age < 25",
    "DELETE FROM orders WHERE status = 'done' AND amount < 50",
    "INSERT INTO users (id, age, city, name, score) "
    "VALUES (900, 33, 'c4', 'new', NULL)",
    "SELECT u.city, COUNT(*) FROM users u, orders o "
    "WHERE u.id = o.user_id AND o.created < 200000 GROUP BY u.city",
    "SELECT o.oid, u.name FROM orders o, users u "
    "WHERE o.user_id = u.id AND o.oid IN (5, 6, 7)",
    # Errors surface only when a row reaches the offending expression.
    "SELECT id FROM users WHERE age = ?",
    "SELECT id FROM users WHERE age > 1000 AND score = ?",
    "SELECT id FROM users WHERE SUM(age) > 1",
)


def _node_counts(actual) -> list:
    return [
        [depth, node.label, node.rows, node.loops, node.rows_scanned,
         node.pages_read]
        for depth, node in actual.walk()
    ]


def _run(db: Database, statements, analyze: bool) -> list:
    executor = Executor(db)
    out = []
    for sql in statements:
        stmt = parse(sql)
        try:
            result = executor.execute(
                stmt, analyze=analyze and isinstance(stmt, ast.Select)
            )
        except Exception as exc:   # errors are part of the pinned behaviour
            out.append([sql, type(exc).__name__])
            continue
        entry = [sql, result.rowcount, result.metrics.as_dict()]
        if result.actual is not None:
            entry.append(_node_counts(result.actual))
        out.append(entry)
    return out


def _handwritten_db(indexed: bool) -> Database:
    db = Database.from_tables([users_table(), orders_table()])
    db.load_rows("users", make_user_rows())
    db.load_rows("orders", make_order_rows())
    db.analyze()
    if indexed:
        db.create_index(Index("users", ("city", "age")))
        db.create_index(Index("orders", ("user_id", "status")))
        db.create_index(Index("orders", ("created",)))
    return db


def corpus_records() -> list:
    records = []
    for seed in QA_SEEDS:
        case = generate_case(seed)
        for with_index in (False, True):
            for analyze in (False, True):
                db = case.database()
                if with_index:
                    index = _first_sargable(CostEvaluator(db), case)
                    if index is None:
                        continue
                    db.create_index(index.materialized())
                records.append(
                    [seed, with_index, analyze,
                     _run(db, case.statements, analyze)]
                )
    for indexed in (False, True):
        for analyze in (False, True):
            records.append(
                ["handwritten", indexed, analyze,
                 _run(_handwritten_db(indexed), HANDWRITTEN, analyze)]
            )
    return records


def corpus_digest() -> str:
    text = json.dumps(corpus_records(), sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


PINNED = "67c590b89095db69737d5f63b71a2c1c8c097cd1c1251cab0a8ba53c4f7cca22"


def test_execution_counters_match_pinned_digest():
    assert corpus_digest() == PINNED


# -- chunk boundaries ------------------------------------------------------------

#: Rows of the chunk-boundary orders table: more than two scan chunks.
CHUNK_ORDERS = 4000

#: ``ExecutionMetrics.as_dict()`` keys, in the order CHUNK_CASES lists them.
METRIC_KEYS = (
    "rows_read", "rows_sent", "seq_pages", "random_pages", "index_entries_read",
    "index_entries_written", "pages_written", "sort_rows", "predicate_evals",
)

#: name -> (index on orders(status, created)?, statement, rowcount,
#: counters in METRIC_KEYS order, EXPLAIN ANALYZE [label, rows, loops,
#: rows_scanned, pages_read] per node, or None for DML).  Recorded with the
#: row-at-a-time executor (commit 968c300); positions count from 0 in
#: storage order, which is ``oid`` order here.
CHUNK_CASES = {
    "limit_1": (
        False, "SELECT oid FROM orders LIMIT 1",
        1, (1, 1, 11, 0, 0, 0, 0, 0, 0),
        [
            ["Result", 1, 1, 0, 0],
            ["SeqScan(orders)", 1, 1, 1, 11],
        ],
    ),
    "limit_last_at_1023": (
        False, "SELECT oid FROM orders WHERE status != 'x' LIMIT 1024",
        1024, (1024, 1024, 11, 0, 0, 0, 0, 0, 1024),
        [
            ["Result", 1024, 1, 0, 0],
            ["SeqScan(orders)", 1024, 1, 1024, 11],
        ],
    ),
    "limit_last_at_1024": (
        False, "SELECT oid FROM orders WHERE status != 'x' LIMIT 1025",
        1025, (1025, 1025, 11, 0, 0, 0, 0, 0, 1025),
        [
            ["Result", 1025, 1, 0, 0],
            ["SeqScan(orders)", 1025, 1, 1025, 11],
        ],
    ),
    "limit_last_at_1025": (
        False, "SELECT oid FROM orders WHERE status != 'x' LIMIT 1026",
        1026, (1026, 1026, 11, 0, 0, 0, 0, 0, 1026),
        [
            ["Result", 1026, 1, 0, 0],
            ["SeqScan(orders)", 1026, 1, 1026, 11],
        ],
    ),
    "first_pass_at_1023": (
        False, "SELECT oid FROM orders WHERE oid + 0 >= 1023 LIMIT 1",
        1, (1024, 1, 11, 0, 0, 0, 0, 0, 1024),
        [
            ["Result", 1, 1, 0, 0],
            ["SeqScan(orders)", 1, 1, 1024, 11],
        ],
    ),
    "first_pass_at_1024": (
        False,
        "SELECT oid FROM orders WHERE created >= 0 AND oid + 0 >= 1024 "
        "LIMIT 1",
        1, (1025, 1, 11, 0, 0, 0, 0, 0, 2050),
        [
            ["Result", 1, 1, 0, 0],
            ["SeqScan(orders)", 1, 1, 1025, 11],
        ],
    ),
    "first_pass_at_1025": (
        False,
        "SELECT oid FROM orders WHERE amount >= 0 AND oid + 0 >= 1025 "
        "LIMIT 1",
        1, (1026, 1, 11, 0, 0, 0, 0, 0, 2052),
        [
            ["Result", 1, 1, 0, 0],
            ["SeqScan(orders)", 1, 1, 1026, 11],
        ],
    ),
    "no_row_passes": (
        False, "SELECT oid FROM orders WHERE amount > 5000 AND status = 'paid'",
        0, (4000, 0, 11, 0, 0, 0, 0, 0, 8000),
        [
            ["Result", 0, 1, 0, 0],
            ["SeqScan(orders)", 0, 1, 4000, 11],
        ],
    ),
    "nlj_edge_limit": (
        False,
        "SELECT u.name, o.oid FROM users u, orders o WHERE u.id = "
        "o.user_id AND u.id = 17 LIMIT 3",
        3, (1154, 3, 11, 1, 1, 0, 0, 0, 1154),
        [
            ["Result", 3, 1, 0, 0],
            ["SeqScan(o)", 3, 1, 1153, 11],
            ["PkRange(u eq=['id'])", 1, 1, 1, 1],
        ],
    ),
    "nlj_edge_filter_limit": (
        False,
        "SELECT u.id, o.oid FROM users u, orders o WHERE u.id = o.user_id"
        " AND u.id = 17 AND o.amount > 100 LIMIT 3",
        3, (1154, 3, 11, 1, 1, 0, 0, 0, 2199),
        [
            ["Result", 3, 1, 0, 0],
            ["SeqScan(o)", 3, 1, 1153, 11],
            ["PkRange(u eq=['id'])", 1, 1, 1, 1],
        ],
    ),
    "nlj_two_edges": (
        False,
        "SELECT u.name, o.oid FROM users u, orders o WHERE u.id = "
        "o.user_id AND u.age = o.amount AND u.id = 17 AND o.status != "
        "'new' LIMIT 2",
        0, (4001, 0, 11, 1, 1, 0, 0, 0, 6660),
        [
            ["Result", 0, 1, 0, 0],
            ["SeqScan(o)", 0, 1, 4000, 11],
            ["PkRange(u eq=['id'])", 1, 1, 1, 1],
        ],
    ),
    "nlj_conjunct_limit": (
        False,
        "SELECT u.name, o.amount FROM users u, orders o WHERE u.id = 5 "
        "AND o.amount > u.age AND o.status = 'paid' LIMIT 2",
        2, (9, 2, 11, 1, 1, 0, 0, 0, 11),
        [
            ["Result", 2, 1, 0, 0],
            ["SeqScan(o)", 2, 1, 8, 11],
            ["PkRange(u eq=['id'])", 1, 1, 1, 1],
        ],
    ),
    "index_prefix_two_chunks": (
        True, "SELECT oid FROM orders WHERE status = 'paid' AND oid + 0 > 5",
        1297, (1298, 1297, 3, 1, 1298, 0, 0, 0, 2596),
        [
            ["Result", 1297, 1, 0, 0],
            ["IndexScan(orders via idx_orders_status_created eq=['status'] "
             "range=None covering)", 1297, 1, 1298, 4],
        ],
    ),
    "pk_range_four_chunks": (
        False, "SELECT oid, amount FROM orders WHERE oid >= 100 AND amount > 990",
        43, (3900, 43, 0, 1, 3900, 0, 0, 0, 7800),
        [
            ["Result", 43, 1, 0, 0],
            ["PkRange(orders eq=[])", 43, 1, 3900, 1],
        ],
    ),
    "pk_range_limit_in_second_chunk": (
        False,
        "SELECT oid, amount FROM orders WHERE oid >= 100 AND amount > 5 "
        "LIMIT 1030",
        1030, (1035, 1030, 0, 1, 1035, 0, 0, 0, 2070),
        [
            ["Result", 1030, 1, 0, 0],
            ["PkRange(orders eq=[])", 1030, 1, 1035, 1],
        ],
    ),
    "update_via_seq_scan": (
        False, "UPDATE orders SET amount = amount + 1 WHERE amount > 900",
        412, (4000, 0, 11, 0, 0, 412, 412, 0, 4000),
        None,
    ),
    "delete_via_seq_scan": (
        False, "DELETE FROM orders WHERE status = 'done' AND created < 500000",
        673, (4000, 0, 11, 0, 0, 673, 673, 0, 8000),
        None,
    ),
}


def _chunk_db(indexed: bool) -> Database:
    db = Database.from_tables([users_table(), orders_table()])
    db.load_rows("users", make_user_rows())
    db.load_rows("orders", make_order_rows(n=CHUNK_ORDERS))
    db.analyze()
    if indexed:
        db.create_index(Index("orders", ("status", "created")))
    return db


@pytest.mark.parametrize("name", sorted(CHUNK_CASES))
def test_counters_across_chunk_boundaries(name):
    """LIMIT exits at and around a chunk boundary, empty filters, nested
    loops over a seq inner, index scans spanning chunks and DML located by
    a seq scan charge exactly the row-at-a-time counters."""
    indexed, sql, rowcount, metrics, nodes = CHUNK_CASES[name]
    stmt = parse(sql)
    select = isinstance(stmt, ast.Select)
    result = Executor(_chunk_db(indexed)).execute(stmt, analyze=select)
    assert result.rowcount == rowcount
    assert result.metrics.as_dict() == dict(zip(METRIC_KEYS, metrics))
    if select:
        assert [
            [node.label, node.rows, node.loops, node.rows_scanned, node.pages_read]
            for _depth, node in result.actual.walk()
        ] == nodes


# -- small-probe hash joins ------------------------------------------------------

#: Shared by a user's score and an order's amount: a dict lookup finds the
#: identical NaN, so its bucket holds that order and the edge check
#: charges and rejects it.
NAN = float("nan")

#: name -> (statement, outer rows the hash join reads).  Each plans a PK
#: drive and a hash join over a seq scan of orders (four chunks).
SMALL_PROBE_CASES = {
    "one_outer_row": (
        "SELECT u.name, o.oid FROM users u, orders o "
        "WHERE u.id = o.user_id AND u.id IN (17, 100000)", 1,
    ),
    # User 1's score is NULL, user 5's is NaN: each probe charges one
    # predicate per build row in its bucket and joins none.
    "null_probe_key": (
        "SELECT u.id, o.oid FROM users u, orders o "
        "WHERE u.score = o.amount AND u.id IN (1, 100000)", 1,
    ),
    "nan_probe_key": (
        "SELECT u.id, o.oid FROM users u, orders o "
        "WHERE u.score = o.amount AND u.id IN (5, 100000)", 1,
    ),
    "null_and_nan_probe_keys": (
        "SELECT u.id, o.oid FROM users u, orders o "
        "WHERE u.score = o.amount AND u.id IN (1, 5, 14)", 3,
    ),
    "more_outer_rows_than_small_probes": (
        "SELECT u.name, o.oid FROM users u, orders o "
        "WHERE u.id = o.user_id AND u.id <= 6", 7,
    ),
    "limit_stops_early": (
        "SELECT u.name, o.oid FROM users u, orders o "
        "WHERE u.id = o.user_id AND u.id IN (3, 9, 27) LIMIT 2", 1,
    ),
    "two_edges": (
        "SELECT u.name, o.oid FROM users u, orders o "
        "WHERE u.id = o.user_id AND u.age = o.amount AND u.id IN (3, 9, 27)", 3,
    ),
}


def _small_probe_db() -> Database:
    users = make_user_rows()
    users[5]["score"] = NAN
    orders = make_order_rows(n=CHUNK_ORDERS)
    for order in orders[::97]:
        order["amount"] = None
    orders[2500]["amount"] = NAN
    db = Database.from_tables([users_table(), orders_table()])
    db.load_rows("users", users)
    db.load_rows("orders", orders)
    db.analyze()
    return db


@pytest.mark.parametrize("name", sorted(SMALL_PROBE_CASES))
def test_small_probe_hash_join_charges_what_buckets_charge(name, monkeypatch):
    """A hash join that finds its first outer row's bucket with a kernel
    returns the rows, counters and EXPLAIN ANALYZE counts of one that
    builds the buckets first."""
    sql, outer_rows = SMALL_PROBE_CASES[name]
    db = _small_probe_db()
    probed = []
    bucket_kernel = executor_module._bucket_kernel

    def spy(values, key):
        probed.append(key)
        return bucket_kernel(values, key)

    monkeypatch.setattr(executor_module, "_bucket_kernel", spy)

    def run():
        result = Executor(db).execute(sql, analyze=True)
        assert [step.join_method for step in result.plan.steps] == ["drive", "hash"]
        return (
            result.rows, result.metrics.as_dict(),
            [[node.label, node.rows, node.loops, node.rows_scanned,
              node.pages_read] for _depth, node in result.actual.walk()],
        )

    small = run()
    single_edge = name != "two_edges"
    assert len(probed) == (
        min(outer_rows, executor_module.SMALL_PROBES) if single_edge else 0
    )
    monkeypatch.setattr(executor_module, "SMALL_PROBES", 0)
    probed.clear()
    assert run() == small
    assert probed == []


# -- served results ----------------------------------------------------------------

#: sha256 prefixes of every result's rows and counters over the first two
#: windows of the seed-1 tune_serve stream, measured on the executor whose
#: equality kernels were comprehensions and whose hash joins always built
#: buckets.
SERVED_DIGESTS = {"bare": "274a3661dd455efc", "indexed": "f3e0ba9cf18fa5bd"}


@pytest.mark.parametrize("label", sorted(SERVED_DIGESTS))
def test_served_results_over_tune_serve(label):
    """The reads, joins and DML of two tune_serve windows, served through
    MonitoredExecutor on stored TPC-H sf 0.01 with no secondary index or
    with the five tune_serve indexes, return the pinned rows and
    ExecutionMetrics counters, statement by statement."""
    inputs = serve_inputs()
    db = load_tpch(inputs.SCALE_FACTOR, 1)
    if label == "indexed":
        for table, columns in TUNE_SERVE_INDEXES:
            db.create_index(Index(table, columns))
    served = MonitoredExecutor(db)
    stream = inputs.ServeStream(1)
    h = hashlib.sha256()
    for window in range(2):
        for statement in stream.window(window, 100):
            result = served.execute(statement.sql)
            h.update(repr((statement.sql, result.rowcount, result.rows,
                           result.metrics.as_dict())).encode())
    assert h.hexdigest()[:16] == SERVED_DIGESTS[label]


if __name__ == "__main__":
    print(corpus_digest())
