"""Command-line index advisor.

Feed it a schema (CREATE TABLE script) and a workload (SQL statements,
optionally weighted), get back AIM's recommendation as CREATE INDEX
statements::

    python -m repro.cli --schema schema.sql --workload workload.sql \\
        --budget 2GiB --rows orders=5000000 --rows users=200000

Subcommands (``--help`` lists them, ``COMMAND --help`` their options;
without one, as above, the command is ``advise``):

* ``advise`` -- run an advisor (AIM, or a baseline via ``--algorithm``);
  ``--trace FILE.json``, before or after ``advise``, also writes a
  Chrome ``trace_event`` file of the run (load in chrome://tracing), and
  ``--format json`` output carries a ``telemetry`` block.
* ``explain`` -- the optimizer plan of each workload statement; with
  ``--analyze`` the statements are *executed* against synthesized rows
  and each plan node shows estimated vs. actual rows and its Q-error.
* ``fuzz`` -- the deterministic workload fuzzer with the differential
  and metamorphic oracles of :mod:`repro.qa` (see ``docs/TESTING.md``).
* ``obs-report FILE...`` -- summarize trace/telemetry JSON files (see
  ``docs/OBSERVABILITY.md``).
* ``fleet-report JOURNAL.jsonl`` -- the fleet health report of a
  decision journal; ``--json`` emits the structured sections.

Bad input (a usage error, an unreadable file, malformed DDL, an empty
workload) is reported as one ``error:`` line on stderr, exit status 2.

Workload file format: statements separated by ``;`` (one inside a
quoted literal that closes on its line does not split).  A comment line
``-- weight: <number>`` immediately before a statement sets its weight
(execution frequency); the default weight is 1.
Statements outside the parser dialect or naming unknown tables or
columns are skipped with one stderr line each (see
:func:`repro.workload.admit`); ``advise`` and ``explain`` exit 2 only
when no statement is left.

Without row data the advisor runs on *synthesized* statistics (row
counts from ``--rows``/``--default-rows``, NDV heuristics from types and
column names).  Treat the output as a first-pass recommendation and
re-run against ANALYZE-backed statistics for production use.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys
from typing import Callable, Iterable, Optional, Sequence

from .baselines import ALL_ALGORITHMS
from .catalog import CatalogError, Column, Table, TypeKind
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


class CliError(Exception):
    """Bad input: reported as one ``error:`` line, exit status 2."""


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


def parse_row_count(text: str) -> int:
    """Parse a ``--default-rows`` or ``--rows`` count: an integer >= 0."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer row count, got {text!r}"
        )
    return int(text)


def int_at_least(minimum: int) -> Callable[[str], int]:
    """An argparse ``type=`` accepting an integer >= *minimum*."""
    def parse(text: str) -> int:
        try:
            value: Optional[int] = int(text)
        except ValueError:
            value = None
        if value is None or value < minimum:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {minimum}, got {text!r}"
            )
        return value
    return parse


def parse_row_hint(text: str) -> tuple[str, int]:
    """Parse a ``--rows TABLE=COUNT`` hint."""
    table, sep, count = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected TABLE=COUNT, got {text!r}")
    return table.strip(), parse_row_count(count)


#: A quoted literal that closes on its line, or a statement separator.
_LITERAL_OR_SEMICOLON = re.compile(r"'[^']*'|\"[^\"]*\"|`[^`]*`|;")


def parse_workload_file(text: str) -> Workload:
    """Split a SQL script into weighted statements.

    ``-- weight: N`` comment lines annotate the following statement.  A
    ``;`` splits unless it sits inside a quoted literal that closes on
    the same line.
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
        weight_match = re.match(r"--\s*weight:\s*([0-9]*\.?[0-9]+)", line, re.I)
        if weight_match:
            pending_weight = float(weight_match.group(1))
            continue
        if line.startswith("--"):
            continue
        start = 0
        for match in _LITERAL_OR_SEMICOLON.finditer(line):
            if match.group() == ";":
                buffer.append(line[start:match.start()])
                flush()
                start = match.end()
        rest = line[start:].strip()
        if rest:
            buffer.append(rest)
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


def _ddl_database(schema_sql: str, row_counts: dict[str, int],
                  default_rows: int, engine: str, stored: bool):
    """The empty database a DDL script declares, and each table with its
    row count (its ``--rows`` hint, else *default_rows*).  A script the
    DDL parser or the catalog rejects raises :class:`CliError`."""
    try:
        parsed = parse_ddl(schema_sql)
        schema = parsed.to_schema()
    except (ValueError, CatalogError) as exc:   # DdlError, LexError, ...
        # KeyError's str() quotes its message; take the bare text.
        detail = exc.args[0] if exc.args else exc
        raise CliError(f"invalid schema: {detail}") from None
    db = Database(schema, params=_ENGINES[engine], with_storage=stored,
                  name="cli")
    return db, [(t, row_counts.get(t.name, default_rows)) for t in parsed.tables]


def build_database(
    schema_sql: str,
    row_counts: dict[str, int],
    default_rows: int,
    engine: str,
) -> Database:
    """Assemble a stats-only database from DDL plus row-count hints."""
    db, tables = _ddl_database(
        schema_sql, row_counts, default_rows, engine, stored=False
    )
    for table, rows in tables:
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
    db, tables = _ddl_database(
        schema_sql, row_counts, default_rows, engine, stored=True
    )
    for table, rows in tables:
        rng = random.Random(f"{seed}:{table.name}")   # str seeds hash stably
        columns = {column.name: [] for column in table.columns}
        appends = [(column, columns[column.name].append) for column in table.columns]
        for i in range(rows):   # row-major, so each row draws as it always did
            for column, append in appends:
                append(synthesize_row_value(table, column, rows, i, rng))
        db.load_columns(table.name, columns)
    db.analyze()
    return db


def _read_inputs(
    args: argparse.Namespace, build: Callable[..., Database]
) -> tuple[Database, Workload]:
    """Read ``--schema`` and ``--workload`` (or explain's ``--sql``), then
    ``build`` the database and :func:`admit` the statements it can plan.
    An unreadable file, an invalid schema or a workload with no plannable
    statement raises :class:`CliError`."""
    try:
        with open(args.schema) as fh:
            schema_sql = fh.read()
        if getattr(args, "sql", None) is not None:
            workload = Workload([WorkloadQuery(args.sql, name="q1")], name="cli")
        else:
            with open(args.workload) as fh:
                workload = parse_workload_file(fh.read())
    except OSError as exc:
        raise CliError(f"cannot read {exc.filename}: {exc.strerror}") from None
    if not len(workload):
        raise CliError("the workload contains no statements")
    db = build(schema_sql, dict(args.rows), args.default_rows, args.engine)
    workload, skipped = admit(workload, db.schema)
    for event in skipped:
        print(f"warning: skipped statement {event.position} "
              f"({event.reason}): {event.detail}", file=sys.stderr)
    if not len(workload):
        raise CliError("no statement of the workload can be planned")
    return db, workload


def advise(args: argparse.Namespace) -> int:
    """``repro.cli advise``: run an advisor, print its recommendation."""
    db, workload = _read_inputs(args, build_database)
    if args.algorithm == "aim":
        config = AimConfig(
            join_parameter=args.join_parameter,
            max_index_width=args.max_width,
        )
        recommendation = AimAdvisor(db, config).recommend(workload, args.budget)
        summary = recommendation.summary() + "\n"
        indexes = recommendation.indexes
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
        }
    else:
        result = ALL_ALGORITHMS[args.algorithm](db).select(workload, args.budget)
        summary = (f"{result.algorithm}: relative cost "
                   f"{result.relative_cost:.3f}, {len(result.indexes)} indexes")
        indexes = result.indexes
        payload = {
            "algorithm": result.algorithm,
            "indexes": [
                {"table": i.table, "columns": list(i.columns)}
                for i in result.indexes
            ],
            "relative_cost": result.relative_cost,
            "runtime_seconds": result.runtime_seconds,
            "optimizer_calls": result.optimizer_calls,
        }
    if args.format == "json":
        payload["telemetry"] = telemetry_snapshot()
        print(json.dumps(payload, indent=2))
    else:
        print(summary)
        for index in indexes:
            print(f"{index.create_statement()};")
    if args.trace:
        try:
            get_tracer().write_chrome_trace(args.trace)
        except OSError as exc:
            print(f"error: cannot write trace file: {exc}", file=sys.stderr)
            return 1
    return 0


def explain(args: argparse.Namespace) -> int:
    """``repro.cli explain``: plans, optionally with executed actuals."""
    db, workload = _read_inputs(
        args, functools.partial(build_stored_database, seed=args.seed)
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


def fuzz(args: argparse.Namespace) -> int:
    """``repro.cli fuzz``: deterministic fuzzing with the qa oracles.

    Exit status: 0 when every oracle held on every case, 1 when at
    least one violation was found (repro files land in ``--out``),
    2 on usage errors.
    """
    from .qa import ORACLES, replay_case, run_fuzz

    names = None
    if args.oracles:
        names = [n.strip() for n in args.oracles.split(",") if n.strip()]
        unknown = [n for n in names if n not in ORACLES]
        if unknown:
            raise CliError(f"unknown oracle(s) {', '.join(unknown)}; "
                           f"choose from {', '.join(sorted(ORACLES))}")

    if args.replay is not None:
        try:
            report = replay_case(args.replay, oracles=names)
        except (OSError, KeyError, ValueError) as exc:
            raise CliError(f"cannot replay {args.replay}: {exc}") from None
    else:
        if args.iters < 1:
            raise CliError("--iters must be >= 1")

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


def obs_report(args: argparse.Namespace) -> int:
    """``repro.cli obs-report``: summarize trace/telemetry JSON files."""
    for path in args.paths:
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read {path}: {exc}") from None
        if len(args.paths) > 1:
            print(f"== {path} ==")
        print(render_report(payload))
    return 0


def fleet_report(args: argparse.Namespace) -> int:
    """``repro.cli fleet-report``: render a decision-journal report."""
    try:
        records = read_events(args.journal)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read journal {args.journal}: {exc}") from None
    if args.json:
        print(json.dumps(fleet_report_data(records), indent=2))
    else:
        print(render_fleet_report(records))
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Raises :class:`CliError` on a usage error instead of exiting."""

    def error(self, message: str):
        raise CliError(f"{self.prog}: {message}")


def _input_options(default_rows: int, rows_help: str) -> argparse.ArgumentParser:
    """The schema and row-count options ``advise`` and ``explain`` share."""
    parent = _ArgumentParser(add_help=False)
    arg = parent.add_argument
    arg("--schema", required=True, help="path to a CREATE TABLE script")
    arg("--rows", action="append", default=[], type=parse_row_hint,
        metavar="TABLE=COUNT", help="row count hint, repeatable")
    arg("--default-rows", type=parse_row_count, default=default_rows,
        help=rows_help)
    arg("--engine", choices=sorted(_ENGINES), default="innodb",
        help="storage engine cost profile")
    return parent


def make_parser() -> argparse.ArgumentParser:
    """The command line: one subparser per subcommand, whose ``run``
    default is the function that runs it; ``commands`` maps their names
    to them."""
    parser = _ArgumentParser(
        prog="repro.cli", epilog="Without a subcommand the command is advise.",
        description="AIM index advisor over SQL schema + workload files.",
    )
    commands = parser.add_subparsers(title="subcommands", metavar="COMMAND")
    parser.commands = commands.choices
    output = _ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("text", "json"), default="text")

    def command(name, run, summary, *parents) -> argparse.ArgumentParser:
        cmd = commands.add_parser(name, help=summary, description=summary,
                                  parents=list(parents))
        cmd.set_defaults(run=run)
        return cmd

    arg = command(
        "advise", advise, "Recommend indexes (the default subcommand).",
        _input_options(1_000_000, "row count for tables without a --rows hint"),
        output,
    ).add_argument
    arg("--trace", metavar="FILE.json",
        help="write a Chrome trace_event file of the run")
    arg("--workload", required=True,
        help="path to a SQL workload script (see module docs)")
    arg("--budget", type=parse_size, default=parse_size("1GiB"),
        help="storage budget, e.g. 10GiB (default 1GiB)")
    arg("--join-parameter", type=int_at_least(0), default=2,
        help="AIM's j (Sec. IV-C)")
    arg("--max-width", type=int_at_least(1), default=None,
        help="optional cap on index width")
    arg("--algorithm", choices=sorted(ALL_ALGORITHMS), default="aim",
        help="advisor to run")

    cmd = command(
        "explain", explain, "Optimizer plans (and, with --analyze, executed "
        "actuals with per-node Q-error) for workload statements.",
        _input_options(2000, "rows to synthesize per table (default 2000; "
                       "rows are generated and executed, keep it small)"),
        output,
    )
    source = cmd.add_mutually_exclusive_group(required=True)
    source.add_argument("--workload", help="path to a SQL workload script")
    source.add_argument("--sql", help="a single statement instead of --workload")
    cmd.add_argument("--seed", type=int, default=7, help="row synthesis seed")
    cmd.add_argument("--analyze", action="store_true",
                     help="execute each statement and show actuals")

    arg = command(
        "fuzz", fuzz, "Deterministic workload fuzzer with differential and "
        "metamorphic oracles (repro.qa).", output,
    ).add_argument
    arg("--seed", type=int, default=0,
        help="base seed; case i uses seed+i (default 0)")
    arg("--iters", type=int, default=100,
        help="number of cases to generate (default 100)")
    arg("--oracles", metavar="NAMES",
        help="comma-separated oracle subset (default: all)")
    arg("--shrink", action="store_true",
        help="minimize failing cases before writing them")
    arg("--out", default="qa_failures",
        help="directory for failure repro files (default qa_failures)")
    arg("--max-failures", type=int, default=5,
        help="stop after this many failing cases (default 5)")
    arg("--replay", metavar="FILE", help="re-run the oracles against a "
        "persisted qa_failures file instead of fuzzing")

    command("obs-report", obs_report, "Summarize trace/telemetry JSON files."
            ).add_argument("paths", nargs="+", metavar="FILE.json")
    arg = command("fleet-report", fleet_report,
                  "Render the fleet health report of a decision journal."
                  ).add_argument
    arg("journal", metavar="JOURNAL.jsonl")
    arg("--json", action="store_true", help="emit the structured sections")
    return parser


def _with_command(argv: list[str], commands: Iterable[str]) -> list[str]:
    """*argv* with its subcommand first.  A subcommand after a leading
    ``--trace FILE`` moves before it; without one the command is
    ``advise``."""
    lead = argv[0] if argv else ""
    first = 2 if lead == "--trace" else 1 if lead.startswith("--trace=") else 0
    if argv[first:first + 1] and argv[first] in (*commands, "-h", "--help"):
        return [argv[first], *argv[:first], *argv[first + 1:]]
    return ["advise", *argv]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand and return its exit status.

    Never raises ``SystemExit``: ``--help`` returns 0, and usage errors
    and bad inputs print one ``error:`` line and return 2.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = make_parser()
    try:
        args = parser.parse_args(_with_command(argv, parser.commands))
        return args.run(args)
    except SystemExit as exc:   # --help
        return exc.code or 0
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
