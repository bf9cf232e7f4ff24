"""Unit tests for the repro.qa fuzzing subsystem itself.

Covers the generator (determinism, serialization, parseability), the
reference interpreter, the oracle pack on known-good seeds, shrinking
of injected failures, the runner (failure persistence + replay), and
the ``repro fuzz`` CLI.
"""

import dataclasses
import json
import subprocess
import sys

import pytest

from repro.cli import main as cli_main
from repro.executor import Executor
from repro.qa import (
    Case,
    GenConfig,
    ORACLES,
    OracleConfig,
    ReferenceDatabase,
    generate_case,
    replay_case,
    run_fuzz,
    run_oracles,
    shrink_case,
    write_failure,
)
from repro.qa.oracles import Violation
from repro.sqlparser import parse
from repro.sqlparser.ast import Select

_FAST = GenConfig(rows=(0, 40))


# ---------------------------------------------------------------- generator


def test_generate_case_structure():
    case = generate_case(3)
    assert case.seed == 3
    assert case.tables
    assert case.statements
    for table in case.tables:
        assert table.name in case.rows
    for sql in case.statements:
        parse(sql)   # every statement must be within the parser dialect


def test_case_roundtrips_through_json():
    case = generate_case(11)
    again = Case.from_dict(json.loads(case.to_json()))
    assert again.to_json() == case.to_json()
    assert again.statements == case.statements
    assert [t.name for t in again.tables] == [t.name for t in case.tables]


def test_case_database_is_loadable_and_queryable():
    case = generate_case(5, _FAST)
    db = case.database()
    executor = Executor(db)
    for sql in case.statements:
        executor.execute(sql)   # nothing raises


def test_gen_config_bounds_are_respected():
    config = GenConfig(tables=(2, 2), rows=(1, 10), statements=(3, 5))
    for seed in range(20, 25):
        case = generate_case(seed, config)
        assert len(case.tables) == 2
        assert 3 <= len(case.statements) <= 5
        for rows in case.rows.values():
            assert 1 <= len(rows) <= 10


# ---------------------------------------------------------------- reference


def test_reference_point_query():
    case = generate_case(9, _FAST)
    ref = ReferenceDatabase(case.tables, case.rows)
    table = case.tables[0]
    result = ref.execute(parse(f"SELECT COUNT(*) FROM {table.name}"))
    assert result.rows[0][0] == len(case.rows[table.name])


def test_reference_order_by_is_sorted():
    case = generate_case(9, _FAST)
    table = case.tables[0]
    ref = ReferenceDatabase(case.tables, case.rows)
    result = ref.execute(
        parse(f"SELECT id FROM {table.name} ORDER BY id")
    )
    ids = [r[0] for r in result.rows]
    assert ids == sorted(ids)
    assert result.ordered and result.keys_unique


def test_reference_zero_row_global_aggregate():
    config = GenConfig(rows=(0, 0))
    case = generate_case(1, config)
    table = case.tables[0]
    ref = ReferenceDatabase(case.tables, case.rows)
    result = ref.execute(
        parse(f"SELECT COUNT(*), MAX(id) FROM {table.name}")
    )
    assert result.rows == [(0, None)]


# ------------------------------------------------------------------ oracles


def test_all_oracles_pass_on_seed_7():
    case = generate_case(7)
    assert run_oracles(case, sorted(ORACLES), OracleConfig()) == []


def test_run_oracles_rejects_unknown_name():
    case = generate_case(7, _FAST)
    with pytest.raises(ValueError):
        run_oracles(case, ["no-such-oracle"], OracleConfig())


def test_differential_oracle_catches_wrong_rows(monkeypatch):
    # Inject an engine bug: SELECT silently drops the last result row.
    case = generate_case(7, _FAST)
    real_execute = Executor.execute

    def broken_execute(self, stmt, analyze=False):
        result = real_execute(self, stmt, analyze=analyze)
        parsed = parse(stmt) if isinstance(stmt, str) else stmt
        if isinstance(parsed, Select) and len(result.rows) > 1:
            return dataclasses.replace(
                result, rows=result.rows[:-1], rowcount=result.rowcount - 1
            )
        return result

    monkeypatch.setattr(Executor, "execute", broken_execute)
    violations = run_oracles(case, ["differential"], OracleConfig())
    assert violations
    assert all(v.oracle == "differential" for v in violations)


# ------------------------------------------------------------------- shrink


def test_shrink_minimizes_to_failing_statement():
    case = generate_case(13, _FAST)
    needle = case.statements[len(case.statements) // 2]

    def still_failing(candidate: Case) -> bool:
        return needle in candidate.statements

    shrunk = shrink_case(case, still_failing)
    assert needle in shrunk.statements
    assert len(shrunk.statements) == 1
    assert len(shrunk.tables) <= len(case.tables)


def test_shrink_keeps_original_when_nothing_smaller_fails():
    case = generate_case(13, GenConfig(tables=(1, 1), statements=(1, 1)))

    def still_failing(candidate: Case) -> bool:
        return candidate.statements == case.statements

    shrunk = shrink_case(case, still_failing)
    assert shrunk.statements == case.statements


def test_shrink_survives_crashing_predicate():
    case = generate_case(13, _FAST)
    target = case.statements[0]

    def flaky(candidate: Case) -> bool:
        if len(candidate.statements) == 2:
            raise RuntimeError("boom")   # treated as not-failing
        return target in candidate.statements

    shrunk = shrink_case(case, flaky)
    assert target in shrunk.statements


# ------------------------------------------------------------------- runner


def test_run_fuzz_clean_report():
    report = run_fuzz(seed=7, iters=3, gen_config=_FAST)
    assert report.ok
    assert report.cases_run == 3
    assert report.failure_files == []
    payload = report.to_dict()
    assert payload["ok"] and payload["cases_run"] == 3


def test_run_fuzz_rejects_unknown_oracle():
    with pytest.raises(ValueError):
        run_fuzz(seed=7, iters=1, oracles=["bogus"])


def test_write_failure_and_replay(tmp_path):
    case = generate_case(7, _FAST)
    violation = Violation(
        oracle="differential", seed=7, statement="q0", detail="synthetic"
    )
    path = write_failure(case, [violation], str(tmp_path))
    assert path is not None
    with open(path) as fh:
        payload = json.load(fh)
    assert payload["violations"][0]["oracle"] == "differential"
    assert "--replay" in payload["replay"]
    # Replaying a healthy case against real oracles comes back clean.
    report = replay_case(path, oracles=["differential"])
    assert report.ok
    assert report.seed == 7


def test_run_fuzz_persists_shrunken_failure(tmp_path, monkeypatch):
    # Same injected engine bug as above, this time through the full
    # runner: the failure must be shrunk and written out for replay.
    real_execute = Executor.execute

    def broken_execute(self, stmt, analyze=False):
        result = real_execute(self, stmt, analyze=analyze)
        parsed = parse(stmt) if isinstance(stmt, str) else stmt
        if isinstance(parsed, Select) and len(result.rows) > 1:
            return dataclasses.replace(
                result, rows=result.rows[:-1], rowcount=result.rowcount - 1
            )
        return result

    monkeypatch.setattr(Executor, "execute", broken_execute)
    report = run_fuzz(
        seed=7, iters=2, oracles=["differential"], shrink=True,
        out_dir=str(tmp_path), gen_config=_FAST, max_failures=1,
    )
    assert not report.ok
    assert report.stopped_early
    assert report.failure_files
    with open(report.failure_files[0]) as fh:
        payload = json.load(fh)
    assert payload["shrunk"] is True
    shrunk = Case.from_dict(payload["case"])
    original = generate_case(shrunk.seed, _FAST)
    assert len(shrunk.statements) <= len(original.statements)


# ---------------------------------------------------------------------- CLI


def test_cli_fuzz_smoke(capsys):
    rc = cli_main(["fuzz", "--seed", "7", "--iters", "2", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["ok"] and out["cases_run"] == 2


def test_cli_fuzz_unknown_oracle(capsys):
    rc = cli_main(["fuzz", "--oracles", "bogus"])
    assert rc == 2
    assert "unknown oracle" in capsys.readouterr().err


def test_cli_fuzz_replay(tmp_path, capsys):
    case = generate_case(7, _FAST)
    violation = Violation(
        oracle="differential", seed=7, statement="q0", detail="synthetic"
    )
    path = write_failure(case, [violation], str(tmp_path))
    rc = cli_main(["fuzz", "--replay", path, "--oracles", "differential"])
    assert rc == 0   # healthy case: replay comes back clean
    assert "OK" in capsys.readouterr().out


def test_cli_fuzz_in_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "repro.cli", "fuzz",
         "--seed", "7", "--iters", "1"],
        capture_output=True, text=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        cwd=".",
    )
    assert out.returncode == 0, out.stderr
    assert "no violations" in out.stdout
