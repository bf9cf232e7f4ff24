"""Command-line index advisor.

Feed it a schema (CREATE TABLE script) and a workload (SQL statements,
optionally weighted), get back AIM's recommendation as CREATE INDEX
statements::

    python -m repro.cli --schema schema.sql --workload workload.sql \\
        --budget 2GiB --rows orders=5000000 --rows users=200000

Subcommands (the bare flag form above implies ``advise``):

* ``advise`` -- run an advisor; ``--trace FILE.json`` additionally writes
  a Chrome ``trace_event`` file of the run (load in chrome://tracing),
  and ``--format json`` output carries a ``telemetry`` block.
* ``obs-report FILE`` -- summarize a previously written trace/telemetry
  JSON (see ``docs/OBSERVABILITY.md``).
* ``explain`` -- print the optimizer plan for each workload statement;
  with ``--analyze`` the statements are *executed* against synthesized
  rows and each plan node shows estimated vs. actual rows with its
  Q-error (EXPLAIN ANALYZE).
* ``fleet-report JOURNAL.jsonl`` -- render the fleet health report
  (decision audit, regression timeline, digest time series, top
  estimation errors) from a decision journal written by an instrumented
  run; ``--json`` emits the structured sections.
* ``fuzz`` -- run the deterministic workload fuzzer and differential /
  metamorphic oracles of :mod:`repro.qa` (``--seed``, ``--iters``,
  ``--oracles``, ``--shrink``); failing cases are minimized and written
  to ``qa_failures/`` and re-run with ``--replay FILE``.  See
  ``docs/TESTING.md``.

Workload file format: statements separated by ``;``.  A comment line
``-- weight: <number>`` immediately before a statement sets its weight
(execution frequency); the default weight is 1.
Statements outside the parser dialect or naming unknown tables or
columns are skipped with one stderr line each (see
:func:`repro.workload.admit`); ``advise`` exits 2 only when no statement
is left.

Without row data the advisor runs on *synthesized* statistics (row
counts from ``--rows``/``--default-rows``, NDV heuristics from types and
column names).  Treat the output as a first-pass recommendation and
re-run against ANALYZE-backed statistics for production use.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from typing import Optional, Sequence

from .baselines import ALL_ALGORITHMS, AimAlgorithm
from .catalog import Column, Table, TypeKind
from .core import AimAdvisor, AimConfig
from .engine import Database, INNODB, INNODB_HDD, ROCKSDB
from .executor import Executor, render_explain_analyze
from .obs import get_tracer, read_events, telemetry_snapshot
from .obs.fleet_report import fleet_report_data, render_fleet_report
from .obs.report import render_report
from .sqlparser.ddl import parse_ddl
from .stats import SyntheticColumn, synthesize_table
from .workload import Workload, WorkloadQuery, admit

_ENGINES = {"innodb": INNODB, "rocksdb": ROCKSDB, "hdd": INNODB_HDD}

_SIZE_UNITS = {
    "": 1, "B": 1,
    "K": 1 << 10, "KB": 1 << 10, "KIB": 1 << 10,
    "M": 1 << 20, "MB": 1 << 20, "MIB": 1 << 20,
    "G": 1 << 30, "GB": 1 << 30, "GIB": 1 << 30,
    "T": 1 << 40, "TB": 1 << 40, "TIB": 1 << 40,
}


def parse_size(text: str) -> int:
    """Parse a human size like ``10GiB``, ``500MB`` or ``1048576``."""
    match = re.fullmatch(r"\s*([0-9]+(?:\.[0-9]+)?)\s*([A-Za-z]*)\s*", text)
    if not match:
        raise argparse.ArgumentTypeError(f"cannot parse size {text!r}")
    value, unit = match.groups()
    unit_key = unit.upper()
    if unit_key not in _SIZE_UNITS:
        raise argparse.ArgumentTypeError(f"unknown size unit {unit!r}")
    return int(float(value) * _SIZE_UNITS[unit_key])


def parse_workload_file(text: str) -> Workload:
    """Split a SQL script into weighted statements.

    ``-- weight: N`` comment lines annotate the following statement.
    """
    queries: list[WorkloadQuery] = []
    pending_weight = 1.0
    buffer: list[str] = []

    def flush() -> None:
        nonlocal pending_weight
        sql = "\n".join(buffer).strip()
        buffer.clear()
        if not sql:
            return
        queries.append(
            WorkloadQuery(sql, pending_weight, name=f"q{len(queries) + 1}")
        )
        pending_weight = 1.0

    for raw_line in text.splitlines():
        line = raw_line.strip()
        weight_match = re.match(r"--\s*weight:\s*([0-9.]+)", line, re.I)
        if weight_match:
            pending_weight = float(weight_match.group(1))
            continue
        if line.startswith("--"):
            continue
        while ";" in line:
            head, line = line.split(";", 1)
            buffer.append(head)
            flush()
            line = line.strip()
        if line:
            buffer.append(line)
    flush()
    return Workload(queries, name="cli")


def synthesize_column_stats(table: Table, column: Column, rows: int) -> SyntheticColumn:
    """NDV heuristics for stats-less advising (documented in --help)."""
    name = column.name.lower()
    kind = column.ctype.kind.value
    if column.name in table.primary_key:
        return SyntheticColumn(ndv=-1, lo=1, hi=max(2, rows))
    if name.endswith("_id") or name.endswith("id"):
        return SyntheticColumn(ndv=max(2, rows // 2), lo=1, hi=max(2, rows))
    if any(word in name for word in ("status", "state", "kind", "type", "flag")):
        return SyntheticColumn(ndv=8)
    if kind == "boolean":
        return SyntheticColumn(ndv=2)
    if kind in ("date", "datetime"):
        return SyntheticColumn(ndv=min(rows, 3650), lo=0, hi=3650)
    if kind == "string":
        return SyntheticColumn(ndv=max(2, rows // 20))
    return SyntheticColumn(ndv=max(2, rows // 10), lo=0, hi=1_000_000)


def build_database(
    schema_sql: str,
    row_counts: dict[str, int],
    default_rows: int,
    engine: str,
) -> Database:
    """Assemble a stats-only database from DDL plus row-count hints."""
    parsed = parse_ddl(schema_sql)
    db = Database(
        parsed.to_schema(), params=_ENGINES[engine],
        with_storage=False, name="cli",
    )
    for table in parsed.tables:
        rows = row_counts.get(table.name, default_rows)
        spec = {
            column.name: synthesize_column_stats(table, column, rows)
            for column in table.columns
        }
        db.set_stats(table.name, synthesize_table(rows, spec))
    return db


def synthesize_row_value(
    table: Table, column: Column, rows: int, i: int, rng: random.Random
):
    """One deterministic cell value, mirroring the NDV heuristics of
    :func:`synthesize_column_stats` so plans over generated rows estimate
    the same way stats-only advising does."""
    name = column.name.lower()
    kind = column.ctype.kind
    if column.name in table.primary_key:
        return i + 1
    if column.nullable and rng.random() < 0.05:
        return None
    if name.endswith("id"):
        return rng.randint(1, max(2, rows))
    if any(word in name for word in ("status", "state", "kind", "type", "flag")):
        return f"v{rng.randrange(8)}"
    if kind == TypeKind.BOOLEAN:
        return rng.randrange(2)
    if kind in (TypeKind.DATE, TypeKind.DATETIME):
        return rng.randint(0, 3650)
    if kind == TypeKind.STRING:
        return f"s{rng.randrange(max(2, rows // 20))}"
    return rng.randint(0, 1_000_000)


def build_stored_database(
    schema_sql: str,
    row_counts: dict[str, int],
    default_rows: int,
    engine: str,
    seed: int = 7,
) -> Database:
    """Assemble a *stored* database (rows + ANALYZE'd statistics) from DDL
    plus row-count hints, for ``explain --analyze`` runs."""
    parsed = parse_ddl(schema_sql)
    db = Database(
        parsed.to_schema(), params=_ENGINES[engine],
        with_storage=True, name="cli",
    )
    for table in parsed.tables:
        rows = row_counts.get(table.name, default_rows)
        rng = random.Random(f"{seed}:{table.name}")   # str seeds hash stably
        db.load_rows(
            table.name,
            [
                {
                    column.name: synthesize_row_value(
                        table, column, rows, i, rng
                    )
                    for column in table.columns
                }
                for i in range(rows)
            ],
        )
    db.analyze()
    return db


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="AIM index advisor over SQL schema + workload files.",
    )
    parser.add_argument("--trace", default=None, metavar="FILE.json",
                        help="write a Chrome trace_event file of the run")
    parser.add_argument("--schema", required=True,
                        help="path to a CREATE TABLE script")
    parser.add_argument("--workload", required=True,
                        help="path to a SQL workload script (see module docs)")
    parser.add_argument("--budget", type=parse_size, default=parse_size("1GiB"),
                        help="storage budget, e.g. 10GiB (default 1GiB)")
    parser.add_argument("--rows", action="append", default=[],
                        metavar="TABLE=COUNT",
                        help="row count hint, repeatable")
    parser.add_argument("--default-rows", type=int, default=1_000_000,
                        help="row count for tables without a --rows hint")
    parser.add_argument("--engine", choices=sorted(_ENGINES), default="innodb",
                        help="storage engine cost profile")
    parser.add_argument("--join-parameter", type=int, default=2,
                        help="AIM's j (Sec. IV-C)")
    parser.add_argument("--max-width", type=int, default=None,
                        help="optional cap on index width")
    parser.add_argument("--algorithm", choices=sorted(ALL_ALGORITHMS),
                        default="aim", help="advisor to run")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def make_explain_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli explain",
        description="Optimizer plans (and, with --analyze, executed "
        "actuals with per-node Q-error) for workload statements.",
    )
    parser.add_argument("--schema", required=True,
                        help="path to a CREATE TABLE script")
    parser.add_argument("--workload", default=None,
                        help="path to a SQL workload script")
    parser.add_argument("--sql", default=None,
                        help="a single statement instead of --workload")
    parser.add_argument("--rows", action="append", default=[],
                        metavar="TABLE=COUNT",
                        help="row count hint, repeatable")
    parser.add_argument("--default-rows", type=int, default=2000,
                        help="rows to synthesize per table (default 2000; "
                        "rows are generated and executed, keep it small)")
    parser.add_argument("--engine", choices=sorted(_ENGINES),
                        default="innodb", help="storage engine cost profile")
    parser.add_argument("--seed", type=int, default=7,
                        help="row synthesis seed")
    parser.add_argument("--analyze", action="store_true",
                        help="execute each statement and show actuals")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def make_fuzz_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli fuzz",
        description="Deterministic workload fuzzer with differential and "
                    "metamorphic oracles (repro.qa).",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed; case i uses seed+i (default 0)")
    parser.add_argument("--iters", type=int, default=100,
                        help="number of cases to generate (default 100)")
    parser.add_argument("--oracles", default=None, metavar="NAMES",
                        help="comma-separated oracle subset "
                             "(default: all)")
    parser.add_argument("--shrink", action="store_true",
                        help="minimize failing cases before writing them")
    parser.add_argument("--out", default="qa_failures",
                        help="directory for failure repro files "
                             "(default qa_failures)")
    parser.add_argument("--max-failures", type=int, default=5,
                        help="stop after this many failing cases (default 5)")
    parser.add_argument("--replay", default=None, metavar="FILE",
                        help="re-run the oracles against a persisted "
                             "qa_failures file instead of fuzzing")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    return parser


#: Options of the advise parser that consume a value (subcommand scan).
_VALUE_FLAGS = {
    "--trace", "--schema", "--workload", "--budget", "--rows",
    "--default-rows", "--engine", "--join-parameter", "--max-width",
    "--algorithm", "--format", "--sql", "--seed",
    "--iters", "--oracles", "--out", "--max-failures", "--replay",
}


def _split_command(argv: list[str]) -> tuple[str, list[str]]:
    """Pop the subcommand (first positional token) out of *argv*.

    ``advise`` is the default, so the historical bare-flag invocation
    keeps working; flags may precede the subcommand
    (``repro --trace out.json advise --schema ...``).
    """
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in _VALUE_FLAGS:
            i += 2
        elif token.startswith("-"):
            i += 1
        else:
            if token in (
                "advise", "obs-report", "explain", "fleet-report", "fuzz",
            ):
                return token, argv[:i] + argv[i + 1:]
            return "advise", argv
    return "advise", argv


def obs_report(argv: Sequence[str]) -> int:
    """Summarize trace/telemetry JSON files (``repro.cli obs-report``)."""
    paths = [token for token in argv if not token.startswith("-")]
    if not paths:
        print("usage: repro.cli obs-report FILE.json [FILE.json ...]",
              file=sys.stderr)
        return 2
    for path in paths:
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
        if len(paths) > 1:
            print(f"== {path} ==")
        print(render_report(payload))
    return 0


def explain(argv: Sequence[str]) -> int:
    """``repro.cli explain``: plans, optionally with executed actuals."""
    args = make_explain_parser().parse_args(list(argv))
    if (args.sql is None) == (args.workload is None):
        print("error: give exactly one of --sql or --workload",
              file=sys.stderr)
        return 2
    row_counts: dict[str, int] = {}
    for hint in args.rows:
        if "=" not in hint:
            print(f"error: bad --rows value {hint!r}", file=sys.stderr)
            return 2
        table, _, count = hint.partition("=")
        row_counts[table.strip()] = int(count)
    with open(args.schema) as fh:
        schema_sql = fh.read()
    if args.sql is not None:
        workload = Workload([WorkloadQuery(args.sql, name="q1")], name="cli")
    else:
        with open(args.workload) as fh:
            workload = parse_workload_file(fh.read())
    if not len(workload):
        print("error: nothing to explain", file=sys.stderr)
        return 2

    db = build_stored_database(
        schema_sql, row_counts, args.default_rows, args.engine, args.seed
    )
    executor = Executor(db)
    reports = []
    for query in workload:
        if query.is_dml:
            reports.append(
                {"name": query.name, "sql": query.sql, "skipped": "DML"}
            )
            continue
        result = executor.execute(query.sql, analyze=args.analyze)
        entry = {
            "name": query.name,
            "sql": query.sql,
            "estimated_cost": result.plan.total_cost,
            "rendered": render_explain_analyze(
                result.plan, result.actual if args.analyze else None
            ),
        }
        if result.actual is not None:
            entry["actual"] = result.actual.to_dict()
            entry["rows_returned"] = result.rowcount
        reports.append(entry)

    if args.format == "json":
        print(json.dumps({"statements": reports}, indent=2))
        return 0
    for entry in reports:
        print(f"-- {entry['name']}: {entry['sql']}")
        if "skipped" in entry:
            print(f"   (skipped: {entry['skipped']})")
        else:
            print(entry["rendered"])
        print()
    return 0


def fleet_report(argv: Sequence[str]) -> int:
    """``repro.cli fleet-report``: render a decision-journal report."""
    as_json = "--json" in argv
    paths = [token for token in argv if not token.startswith("-")]
    if len(paths) != 1:
        print("usage: repro.cli fleet-report JOURNAL.jsonl [--json]",
              file=sys.stderr)
        return 2
    try:
        records = read_events(paths[0])
    except (OSError, ValueError) as exc:
        print(f"error: cannot read journal {paths[0]}: {exc}",
              file=sys.stderr)
        return 2
    if as_json:
        print(json.dumps(fleet_report_data(records), indent=2))
    else:
        print(render_fleet_report(records))
    return 0


def fuzz(argv: Sequence[str]) -> int:
    """``repro.cli fuzz``: deterministic fuzzing with the qa oracles.

    Exit status: 0 when every oracle held on every case, 1 when at
    least one violation was found (repro files land in ``--out``),
    2 on usage errors.
    """
    from .qa import ORACLES, replay_case, run_fuzz

    args = make_fuzz_parser().parse_args(list(argv))
    names = None
    if args.oracles:
        names = [n.strip() for n in args.oracles.split(",") if n.strip()]
        unknown = [n for n in names if n not in ORACLES]
        if unknown:
            print(f"error: unknown oracle(s) {', '.join(unknown)}; "
                  f"choose from {', '.join(sorted(ORACLES))}",
                  file=sys.stderr)
            return 2

    if args.replay is not None:
        try:
            report = replay_case(args.replay, oracles=names)
        except (OSError, KeyError, ValueError,
                json.JSONDecodeError) as exc:
            print(f"error: cannot replay {args.replay}: {exc}",
                  file=sys.stderr)
            return 2
    else:
        if args.iters < 1:
            print("error: --iters must be >= 1", file=sys.stderr)
            return 2

        def progress(done: int, total: int, failures: int) -> None:
            if done % 50 == 0 or done == total:
                print(f"fuzz: {done}/{total} cases, "
                      f"{failures} failing", file=sys.stderr)

        report = run_fuzz(
            seed=args.seed,
            iters=args.iters,
            oracles=names,
            shrink=args.shrink,
            out_dir=args.out,
            max_failures=args.max_failures,
            progress=progress if args.format == "text" else None,
        )

    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0 if report.ok else 1
    if report.ok:
        print(f"OK: {report.cases_run} cases x "
              f"{len(report.oracle_names)} oracles, no violations "
              f"(seed {report.seed})")
        return 0
    print(f"FAIL: {len(report.violations)} violation(s) across "
          f"{report.cases_run} cases (seed {report.seed})")
    for violation in report.violations:
        stmt = f" [{violation.statement}]" if violation.statement else ""
        print(f"  {violation.oracle} seed={violation.seed}{stmt}: "
              f"{violation.detail}")
    for path in report.failure_files:
        print(f"  repro written: {path}")
    if report.stopped_early:
        print("  (stopped early: --max-failures reached)")
    return 1


def _write_trace(path: Optional[str]) -> int:
    if path:
        try:
            get_tracer().write_chrome_trace(path)
        except OSError as exc:
            print(f"error: cannot write trace file: {exc}", file=sys.stderr)
            return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    command, argv = _split_command(argv)
    if command == "obs-report":
        return obs_report(argv)
    if command == "explain":
        return explain(argv)
    if command == "fleet-report":
        return fleet_report(argv)
    if command == "fuzz":
        return fuzz(argv)
    args = make_parser().parse_args(argv)
    row_counts: dict[str, int] = {}
    for hint in args.rows:
        if "=" not in hint:
            print(f"error: bad --rows value {hint!r}", file=sys.stderr)
            return 2
        table, _, count = hint.partition("=")
        row_counts[table.strip()] = int(count)

    with open(args.schema) as fh:
        schema_sql = fh.read()
    with open(args.workload) as fh:
        workload = parse_workload_file(fh.read())
    if not len(workload):
        print("error: the workload file contains no statements", file=sys.stderr)
        return 2

    db = build_database(schema_sql, row_counts, args.default_rows, args.engine)
    workload, skipped = admit(workload, db.schema)
    for event in skipped:
        print(f"warning: skipped statement {event.position} "
              f"({event.reason}): {event.detail}", file=sys.stderr)
    if not len(workload):
        print("error: no statement of the workload can be planned",
              file=sys.stderr)
        return 2

    return _advise(args, db, workload)


def _advise(args, db: Database, workload: Workload) -> int:
    if args.algorithm == "aim":
        config = AimConfig(
            join_parameter=args.join_parameter,
            max_index_width=args.max_width,
        )
        recommendation = AimAdvisor(db, config).recommend(workload, args.budget)
        if args.format == "json":
            payload = {
                "indexes": [
                    {
                        "table": rec.index.table,
                        "columns": list(rec.index.columns),
                        "size_bytes": rec.size_bytes,
                        "benefit": rec.benefit,
                        "maintenance": rec.maintenance,
                        "phase": rec.phase,
                    }
                    for rec in recommendation.created
                ],
                "cost_before": recommendation.cost_before,
                "cost_after": recommendation.cost_after,
                "improvement": recommendation.improvement,
                "optimizer_calls": recommendation.optimizer_calls,
                "runtime_seconds": recommendation.runtime_seconds,
                "telemetry": telemetry_snapshot(),
            }
            print(json.dumps(payload, indent=2))
        else:
            print(recommendation.summary())
            print()
            for index in recommendation.indexes:
                print(f"CREATE INDEX {index.name} ON "
                      f"{index.table} ({', '.join(index.columns)});")
        return _write_trace(args.trace)

    algorithm = ALL_ALGORITHMS[args.algorithm](db)
    result = algorithm.select(workload, args.budget)
    if args.format == "json":
        payload = {
            "algorithm": result.algorithm,
            "indexes": [
                {"table": i.table, "columns": list(i.columns)}
                for i in result.indexes
            ],
            "relative_cost": result.relative_cost,
            "runtime_seconds": result.runtime_seconds,
            "optimizer_calls": result.optimizer_calls,
            "telemetry": telemetry_snapshot(),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"{result.algorithm}: relative cost "
              f"{result.relative_cost:.3f}, {len(result.indexes)} indexes")
        for index in result.indexes:
            print(f"CREATE INDEX {index.materialized().name} ON "
                  f"{index.table} ({', '.join(index.columns)});")
    return _write_trace(args.trace)


if __name__ == "__main__":
    sys.exit(main())
