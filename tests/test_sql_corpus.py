"""Corpus test: every workload shipped with the repository parses,
normalizes stably, renders back to itself, and analyzes cleanly."""

import hashlib

import pytest

from repro.optimizer import analyze_query
from repro.sqlparser import normalize_sql, parse


def all_corpus_workloads():
    from repro.workloads.job import job_database, job_workload
    from repro.workloads.production import PRODUCTS, build_product
    from repro.workloads.starjoin import starjoin_database, starjoin_workload
    from repro.workloads.tpch import tpch_database, tpch_workload
    from repro.workloads.tpcds import tpcds_database, tpcds_workload

    product = build_product(PRODUCTS["F"])
    return [
        ("tpch", tpch_database(0.1), tpch_workload()),
        ("tpch-seeded", tpch_database(0.1), tpch_workload(seed=3)),
        ("job", job_database(), job_workload()),
        ("tpcds", tpcds_database(0.1), tpcds_workload()),
        ("starjoin", starjoin_database(), starjoin_workload()),
        ("product-F", product.db, product.workload),
    ]


@pytest.fixture(scope="module")
def corpus():
    return all_corpus_workloads()


def test_corpus_parses_and_roundtrips(corpus):
    checked = 0
    for _name, _db, workload in corpus:
        for query in workload:
            stmt = parse(query.sql)
            rendered = stmt.to_sql()
            assert parse(rendered).to_sql() == rendered, query.sql
            checked += 1
    assert checked > 130


def test_corpus_normalization_stable(corpus):
    for _name, _db, workload in corpus:
        for query in workload:
            normalized = normalize_sql(query.sql)
            assert normalize_sql(normalized) == normalized


def test_corpus_analyzes_against_schema(corpus):
    for name, db, workload in corpus:
        for query in workload:
            info = analyze_query(parse(query.sql), db.schema)
            assert info.bindings, f"{name}: {query.sql[:60]}"
            for binding, table in info.bindings.items():
                assert db.schema.table(table)
            # Every referenced column exists.
            for binding, columns in info.referenced.items():
                table = db.schema.table(info.bindings[binding])
                for column in columns:
                    assert table.has_column(column), (
                        f"{name}: {binding}.{column}"
                    )


def test_corpus_seeded_tpch_differs_from_default(corpus):
    default = next(w for n, _d, w in corpus if n == "tpch")
    seeded = next(w for n, _d, w in corpus if n == "tpch-seeded")
    assert [q.sql for q in default] != [q.sql for q in seeded]
    # ... but the normalized forms mostly coincide (same structures).
    same = sum(
        1
        for a, b in zip(default, seeded)
        if normalize_sql(a.sql) == normalize_sql(b.sql)
    )
    assert same >= len(default) * 0.8


@pytest.fixture(scope="module")
def bundled() -> dict[str, list[str]]:
    """Every bundled statement text, by corpus."""
    from repro.qa.generator import generate_case
    from repro.workloads.job import job_workload
    from repro.workloads.production import PRODUCTS, build_product
    from repro.workloads.starjoin import starjoin_workload
    from repro.workloads.tpch import tpch_workload
    from repro.workloads.tpcds import tpcds_workload

    out = {
        f"product-{name}": [q.sql for q in build_product(PRODUCTS[name]).workload]
        for name in "ABCDEF"
    }
    out["tpch"] = [q.sql for q in tpch_workload()]
    out["tpcds"] = [q.sql for q in tpcds_workload()]
    out["job"] = [q.sql for q in job_workload()]
    out["starjoin"] = [q.sql for q in starjoin_workload()]
    out["qa"] = [sql for seed in range(50) for sql in generate_case(seed).statements]
    return out


#: sha256 prefix of the newline-joined ``repr(parse(sql))`` of each corpus.
PINNED_AST_DIGESTS = {
    "product-A": "ed42622cec32ce82",
    "product-B": "66560553e4f92891",
    "product-C": "0e357fc054aa00f8",
    "product-D": "b80ae93ab7417964",
    "product-E": "eaff1aadfaa50a17",
    "product-F": "cb47d35680b33af9",
    "tpch": "952d1f308dda627b",
    "tpcds": "edc13c80f6e4c5c4",
    "job": "cfbc043244e34501",
    "starjoin": "6999907b5b4a4f98",
    "qa": "4d4efdfc2d7e3cfb",
}


def test_bundled_statements_parse_to_pinned_asts(bundled):
    """The parser builds the same AST, field for field, for every bundled
    statement: a digest of each corpus's ``repr(parse(sql))`` is pinned."""
    digests = {}
    for name, statements in bundled.items():
        h = hashlib.sha256()
        for sql in statements:
            h.update(repr(parse(sql)).encode())
            h.update(b"\n")
        digests[name] = h.hexdigest()[:16]
    assert digests == PINNED_AST_DIGESTS


def test_truncated_statements_raise_pinned_errors(bundled):
    """Every word-prefix of the TPC-H, starjoin and Product F statements
    parses to the same AST or fails with the same error and offset: a
    digest of each outcome is pinned."""
    h = hashlib.sha256()
    for name in ("tpch", "starjoin", "product-F"):
        for sql in bundled[name]:
            words = sql.split(" ")
            for k in range(len(words)):
                try:
                    outcome = repr(parse(" ".join(words[:k])))
                except ValueError as err:
                    outcome = f"{type(err).__name__}: {err}"
                h.update(outcome.encode())
                h.update(b"\n")
    assert h.hexdigest()[:16] == "b76b67541d3259db"
