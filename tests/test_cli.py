"""CLI tests."""

import json
import tempfile
import threading

import pytest

from repro.cli import main, parse_size, parse_workload_file
from repro.obs import EventJournal, MetricsRegistry, set_journal, set_registry

SCHEMA_SQL = """
CREATE TABLE orders (
    oid BIGINT NOT NULL,
    user_id BIGINT,
    amount INT,
    status VARCHAR(16),
    created TIMESTAMP,
    PRIMARY KEY (oid)
);
CREATE TABLE users (
    id BIGINT NOT NULL,
    city VARCHAR(24),
    name VARCHAR(40),
    PRIMARY KEY (id)
);
"""

WORKLOAD_SQL = """
-- the hot dashboard query
-- weight: 120
SELECT amount FROM orders WHERE status = 'paid' AND created > 3000;

-- weight: 40
SELECT u.name, o.amount FROM users u, orders o
WHERE u.id = o.user_id AND u.city = 'nyc';

UPDATE orders SET status = 'done' WHERE oid = 5;
"""


@pytest.fixture()
def files(tmp_path):
    schema = tmp_path / "schema.sql"
    schema.write_text(SCHEMA_SQL)
    workload = tmp_path / "workload.sql"
    workload.write_text(WORKLOAD_SQL)
    return schema, workload


def test_parse_size():
    assert parse_size("1024") == 1024
    assert parse_size("2KiB") == 2048
    assert parse_size("1.5 MB") == int(1.5 * (1 << 20))
    assert parse_size("10GiB") == 10 << 30
    with pytest.raises(Exception):
        parse_size("two bananas")


def test_parse_workload_file_weights_and_splitting():
    workload = parse_workload_file(WORKLOAD_SQL)
    assert len(workload) == 3
    assert workload.queries[0].weight == 120.0
    assert workload.queries[1].weight == 40.0
    assert workload.queries[2].weight == 1.0
    assert workload.queries[2].is_dml
    # A ';' inside a literal that closes on its line does not split; one
    # after an unterminated quote still ends the statement.
    quoted = parse_workload_file(
        "SELECT * FROM t WHERE b = 'x;y' AND a = 2;\n"
        "SELECT 'unterminated FROM users;\n"
    )
    assert [query.sql for query in quoted.queries] == [
        "SELECT * FROM t WHERE b = 'x;y' AND a = 2",
        "SELECT 'unterminated FROM users",
    ]


def test_cli_text_output(files, capsys):
    schema, workload = files
    rc = main([
        "--schema", str(schema), "--workload", str(workload),
        "--budget", "512MiB", "--rows", "orders=500000",
        "--rows", "users=50000",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "AIM recommendation" in out
    assert "CREATE INDEX" in out
    assert "orders" in out


def test_cli_json_output(files, capsys):
    schema, workload = files
    rc = main([
        "--schema", str(schema), "--workload", str(workload),
        "--budget", "512MiB", "--format", "json",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["indexes"]
    assert payload["cost_after"] < payload["cost_before"]
    assert 0 < payload["improvement"] <= 1


def test_cli_other_algorithm(files, capsys):
    schema, workload = files
    rc = main([
        "--schema", str(schema), "--workload", str(workload),
        "--algorithm", "dexter", "--format", "json",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["algorithm"] == "dexter"
    assert payload["relative_cost"] <= 1.0


def test_cli_rejects_bad_rows(files, capsys):
    schema, workload = files
    rc = main([
        "--schema", str(schema), "--workload", str(workload),
        "--rows", "nonsense",
    ])
    assert rc == 2


def test_cli_rejects_empty_workload(files, tmp_path):
    schema, _ = files
    empty = tmp_path / "empty.sql"
    empty.write_text("-- nothing here\n")
    rc = main(["--schema", str(schema), "--workload", str(empty)])
    assert rc == 2


def test_cli_advise_leaves_no_files_or_threads(files, tmp_path, monkeypatch,
                                               capsys):
    """A plain ``advise`` writes only its stdout: no file in the temp dir
    and no thread left behind."""
    schema, workload = files
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    threads = threading.active_count()
    assert main(["advise", "--schema", str(schema),
                 "--workload", str(workload)]) == 0
    assert "CREATE INDEX" in capsys.readouterr().out
    assert list(scratch.iterdir()) == []
    assert threading.active_count() == threads


def test_cli_engine_profiles(files, capsys):
    schema, workload = files
    for engine in ("innodb", "rocksdb", "hdd"):
        rc = main([
            "--schema", str(schema), "--workload", str(workload),
            "--engine", engine, "--format", "json",
        ])
        assert rc == 0
        json.loads(capsys.readouterr().out)


#: Statements no advisor can plan: outside the dialect (parse) or naming
#: tables and columns the schema lacks (resolve).  ``²`` is a Unicode
#: digit but no SQL number.
JUNK_SQL = """
SELECT FROM WHERE garbage;
SELECT x FROM no_such_table WHERE x = 1;
SELECT nope FROM users;
SELECT name FROM users WHERE age = ²;
SELECT 'unterminated FROM users;
"""


def _advise_json(schema, workload, algorithm, capsys):
    rc = main([
        "--schema", str(schema), "--workload", str(workload),
        "--algorithm", algorithm, "--format", "json",
    ])
    assert rc == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    for volatile in ("runtime_seconds", "telemetry"):
        payload.pop(volatile)
    return payload, captured.err


@pytest.mark.parametrize("algorithm", ["aim", "extend"])
def test_cli_advice_ignores_junk_statements(files, tmp_path, capsys, algorithm):
    """advise(W + junk) == advise(W), with one stderr line per skip."""
    schema, workload = files
    dirty = tmp_path / "dirty.sql"
    # Junk on both sides of the good statements, so positions shift.
    dirty.write_text(JUNK_SQL + WORKLOAD_SQL + JUNK_SQL)
    clean, clean_err = _advise_json(schema, workload, algorithm, capsys)
    advised, err = _advise_json(schema, dirty, algorithm, capsys)
    assert advised == clean
    assert clean_err == ""
    lines = err.splitlines()
    assert [line.split(" (")[0] for line in lines] == [
        f"warning: skipped statement {position}"
        for position in (1, 2, 3, 4, 5, 9, 10, 11, 12, 13)
    ]
    assert "(parse): unexpected token" in lines[0]
    assert "(resolve): no table named 'no_such_table'" in lines[1]
    assert "(parse): unexpected character '²'" in lines[3]


def test_cli_skips_are_counted_and_journaled(files, tmp_path, capsys):
    schema, _ = files
    dirty = tmp_path / "dirty.sql"
    dirty.write_text(WORKLOAD_SQL + JUNK_SQL)
    journal, registry = EventJournal(), MetricsRegistry()
    previous_journal = set_journal(journal)
    previous_registry = set_registry(registry)
    try:
        assert main(["--schema", str(schema), "--workload", str(dirty)]) == 0
    finally:
        set_journal(previous_journal)
        set_registry(previous_registry)
    skipped = registry.counter("workload.statements_skipped")
    assert skipped.value(reason="parse") == 3
    assert skipped.value(reason="resolve") == 2
    events = journal.events_of("statement_skipped")
    assert [(e["position"], e["reason"]) for e in events] == [
        (4, "parse"), (5, "resolve"), (6, "resolve"), (7, "parse"), (8, "parse"),
    ]
    assert events[1]["statement"] == "SELECT x FROM no_such_table WHERE x = 1"
    assert events[1]["workload"] == "cli"


def test_cli_all_junk_workload_exits_2(files, tmp_path, capsys):
    schema, _ = files
    junk = tmp_path / "junk.sql"
    junk.write_text(JUNK_SQL)
    assert main(["--schema", str(schema), "--workload", str(junk)]) == 2
    err = capsys.readouterr().err
    assert "error: no statement of the workload can be planned" in err


@pytest.mark.parametrize("argv", [
    ["--schema", "{tmp}/missing.sql", "--workload", "{workload}"],
    ["--schema", "{schema}", "--workload", "{tmp}/missing.sql"],
    ["--schema", "{workload}", "--workload", "{workload}"],
    ["--schema", "{schema}", "--workload", "{workload}",
     "--rows", "orders=abc"],
    ["--schema", "{schema}", "--workload", "{workload}",
     "--rows", "orders=-5"],
    ["--schema", "{schema}", "--workload", "{workload}", "--rows", "500"],
    ["explain", "--schema", "{schema}", "--workload", "{workload}",
     "--rows", "orders=x"],
    ["fleet-report", "{tmp}/journal.jsonl", "--bogus"],
    ["--schema", "{schema}", "--workload", "{workload}",
     "--default-rows", "-5"],
    ["--schema", "{schema}", "--workload", "{workload}", "--max-width", "0"],
    ["--schema", "{schema}", "--workload", "{workload}",
     "--join-parameter", "-1"],
], ids=["missing-schema", "missing-workload", "malformed-ddl", "rows-abc",
        "rows-negative", "rows-no-table", "explain-rows-x",
        "fleet-report-unknown-flag", "default-rows-negative", "max-width-zero",
        "join-parameter-negative"])
def test_cli_bad_input_is_one_error_line(files, tmp_path, capsys, argv):
    schema, workload = files
    (tmp_path / "journal.jsonl").write_text("")
    argv = [arg.format(tmp=tmp_path, schema=schema, workload=workload)
            for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


def test_cli_help_lists_every_subcommand(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for command in ("advise", "explain", "fuzz", "obs-report",
                    "fleet-report"):
        assert command in out


def test_cli_explain_skips_junk_statements(files, tmp_path, capsys):
    schema, _ = files
    dirty = tmp_path / "dirty.sql"
    dirty.write_text(JUNK_SQL + WORKLOAD_SQL)
    assert main(["explain", "--schema", str(schema), "--workload", str(dirty),
                 "--default-rows", "50"]) == 0
    captured = capsys.readouterr()
    assert [line.split(" (")[0] for line in captured.err.splitlines()] == [
        f"warning: skipped statement {position}" for position in (1, 2, 3, 4, 5)
    ]
    headers = [line.split(":")[0] for line in captured.out.splitlines()
               if line.startswith("-- q")]
    assert headers == ["-- q6", "-- q7", "-- q8"]


@pytest.mark.parametrize("prefix, suffix", [
    (["--trace", "{trace}", "advise"], []),
    (["--trace", "{trace}"], []),
    (["--trace={trace}"], []),
    (["advise"], ["--trace", "{trace}"]),
], ids=["before-advise", "bare-flags", "bare-flags-equals", "after-advise"])
def test_cli_trace_forms_write_a_trace(files, tmp_path, capsys, prefix, suffix):
    schema, workload = files
    trace = tmp_path / "trace.json"
    argv = [*prefix, "--schema", str(schema), "--workload", str(workload),
            *suffix]
    assert main([arg.format(trace=trace) for arg in argv]) == 0
    assert "traceEvents" in json.loads(trace.read_text())


def test_cli_trace_is_an_advise_option(files, tmp_path, capsys):
    schema, workload = files
    trace = tmp_path / "trace.json"
    assert main(["--trace", str(trace), "explain", "--schema", str(schema),
                 "--workload", str(workload)]) == 2
    assert "unrecognized arguments: --trace" in capsys.readouterr().err
    assert not trace.exists()
