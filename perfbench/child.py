"""One benchmark task, run in a fresh interpreter by ``run.py``.

Usage: ``python3 perfbench/child.py TASK --seed N [--windows W] [--trace]``

Tasks:

* ``enum:autoadmin``, ``enum:extend`` -- one cold ``select`` on Product A;
* ``aim:product_b``, ``aim:job`` -- one cold ``AimAdvisor.recommend``;
* ``serve`` -- the tune_serve episode over stored TPC-H.

A fresh interpreter per task keeps every timed advise pass cold: the
analysis cache is process-wide and keyed on a structural schema
fingerprint, so rebuilding the database in one process would not clear it.

The task prints one JSON object as its last stdout line.  Failures of the
program under test (exceptions, wrong results, budget overruns) are counted
and reported there, not raised.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from inputs import SCALE_FACTOR, ServeStream, job_input, product_input  # noqa: E402
from layers import LAYERS, span_names  # noqa: E402

#: Storage budget of every cold advise pass.
ADVISE_BUDGET = 256 << 20
#: Secondary-index budget of the continuous tuner on tune_serve.
TUNER_BUDGET = 8 << 20
#: Statements served per tuning window.
WINDOW_SIZE = 100
#: Served SELECTs per window re-run against the reference interpreter.
REFERENCE_SAMPLES = 3
perf = time.perf_counter


class Outcome:
    """Checks attempted and failed, with a few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(message[:300])


class Tracer:
    """Installs the layer wrappers around timed regions only.

    Each layer entry point is one check: a target that no longer resolves
    fails it, so a rename cannot silently shorten a layer's time.
    """

    def __init__(self, enabled: bool, outcome: Outcome):
        self.recorder = None
        self._uninstall = None
        self._outcome = outcome
        self._resolved_checked = False
        if enabled:
            from tracing import SpanRecorder

            self.recorder = SpanRecorder(span_names())

    def __enter__(self):
        if self.recorder is not None:
            from tracing import install

            self._uninstall, unresolved = install(self.recorder, LAYERS)
            if not self._resolved_checked:
                self._resolved_checked = True
                for target in (t for layer in LAYERS for t in layer.targets):
                    self._outcome.check(
                        target not in unresolved,
                        f"traced entry point {target} no longer exists",
                    )
        return self

    def __exit__(self, *exc):
        if self._uninstall is not None:
            self._uninstall()
            self._uninstall = None
        return False

    def summary(self, name: str):
        if self.recorder is None:
            return None
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        self.recorder.write(str(out_dir / f"spans-{name.replace(':', '-')}"))
        return self.recorder.summary()


def _digest(items) -> str:
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()[:16]


def _index_keys(indexes) -> list:
    return sorted([idx.table, list(idx.columns)] for idx in indexes)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _analysis_counts() -> tuple[int, int]:
    from repro.optimizer.analysis_cache import analysis_cache_info

    info = analysis_cache_info()
    return info["hits"], info["misses"]


# -- advise tasks -----------------------------------------------------------------


def recost(db, workload, indexes, reported: float, outcome: Outcome) -> list[float]:
    """Re-plan every statement with an uncached optimizer and check cost_after.

    The clone has no secondary indexes and sees the recommendation as
    dataless indexes, which is how the advisor costed it.  The workload is
    planned twice, and the two sweeps must agree.  Returns each statement's
    plan cost.
    """
    from repro.optimizer import Optimizer

    clone = db.stats_clone(name=f"{db.name}-recost")
    for index in clone.schema.indexes():
        clone.schema.drop_index(index)
    optimizer = Optimizer(clone)
    config = [idx.as_dataless() for idx in indexes]
    pairs = workload.pairs()

    def sweep() -> list[float]:
        return [optimizer.explain(sql, extra_indexes=config).total_cost for sql, _w in pairs]

    costs = sweep()
    outcome.check(sweep() == costs, "two uncached re-plan sweeps returned different costs")
    recomputed = sum(weight * cost for (_sql, weight), cost in zip(pairs, costs))
    outcome.check(
        recomputed == reported,
        f"re-cost mismatch: advisor cost_after={reported!r}, "
        f"uncached re-plan={recomputed!r}",
    )
    return costs


def _is_select(sql: str) -> bool:
    return sql.lstrip()[:6].upper() == "SELECT"


def advise_task(task: str, seed: int, trace: bool) -> dict:
    kind, case = task.split(":")
    if kind == "enum":
        from repro.baselines import ALL_ALGORITHMS

        advise = lambda db, w, b: ALL_ALGORITHMS[case](db).select(w, b)
    else:
        from repro.core import AimAdvisor

        advise = lambda db, w, b: AimAdvisor(db).recommend(w, b)
    if case == "product_b":
        db, workload = product_input("B", seed)
    elif case == "job":
        db, workload = job_input()
    else:
        db, workload = product_input("A", seed)
    setup_s = perf() - _START

    outcome = Outcome()
    tracer = Tracer(trace, outcome)
    hits0, misses0 = _analysis_counts()
    with tracer:
        start = perf()
        result = advise(db, workload, ADVISE_BUDGET)
        wall = perf() - start
    hits1, misses1 = _analysis_counts()
    peak_rss_mb = _peak_rss_mb()            # before the checks allocate
    indexes = result.indexes
    size = result.total_size_bytes

    outcome.attempted += 1          # the advisor call itself
    outcome.check(
        size <= ADVISE_BUDGET,
        f"{task}: recommended {size} bytes over the {ADVISE_BUDGET} budget",
    )
    stmt_costs = recost(db, workload, indexes, result.cost_after, outcome)
    statements = [sql for sql, _w in workload.pairs()]
    return {
        "task": task,
        "setup_s": setup_s,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "cost_before": result.cost_before,
        "cost_after": result.cost_after,
        "indexes": len(indexes),
        "recommendation": _digest(_index_keys(indexes)),
        "optimizer_calls": result.optimizer_calls,
        "statements": len(statements),
        "selects": sum(1 for sql in statements if _is_select(sql)),
        "sql_digest": _digest(statements),
        "stmt_cost_sum": sum(stmt_costs),
        "analysis_hits": hits1 - hits0,
        "analysis_lookups": (hits1 - hits0) + (misses1 - misses0),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
        "layers": tracer.summary(task),
    }


# -- tune_serve ------------------------------------------------------------------


def _forked(fn):
    """``fn()`` run in a forked copy of this process; returns its JSON result.

    The serve checks run there so that their memory (the reference
    interpreter copies every row it is given, the cost checks build stats
    clones) and their cache entries stay out of the serving process, whose
    peak RSS and timings are the measurement.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            payload = json.dumps({"value": fn()})
        except BaseException:
            payload = json.dumps({"crash": traceback.format_exc(limit=3)})
        with os.fdopen(write_fd, "w") as fh:
            fh.write(payload)
        os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    if not data:
        raise RuntimeError("forked check process died without a result")
    out = json.loads(data)
    if "crash" in out:
        raise RuntimeError("forked check process failed:\n" + out["crash"])
    return out["value"]


def _reference_check(db, executor, statement):
    """Re-run one served SELECT on the executor and the reference interpreter.

    Returns ``(ok, message)``, or None when the statement has no single
    right answer.
    """
    from repro.qa.reference import ReferenceDatabase
    from repro.sqlparser import parse

    stmt = parse(statement.sql)
    tables = [ref.name for ref in stmt.tables]
    rows = {}
    for name in tables:
        table_rows = list(db.storage[name].rows.values())
        if statement.pin is not None and statement.pin[0] == name:
            _table, column, value = statement.pin
            table_rows = [row for row in table_rows if row.get(column) == value]
        rows[name] = table_rows
    reference = ReferenceDatabase([db.schema.table(t) for t in tables], rows)
    expected = reference.execute(stmt)
    got = executor.execute(statement.sql).rows
    if expected.ordered and not expected.keys_unique:
        return None                     # ties under LIMIT: no single answer
    if not expected.ordered:
        got, want = sorted(map(repr, got)), sorted(map(repr, expected.rows))
    else:
        want = expected.rows
    return got == want, f"reference mismatch on {statement.template}: {statement.sql}"


def _pre_cycle_checks(db, executor, samples, statements) -> dict:
    """Reference samples and the window's estimated cost before its cycle."""
    results = []
    for statement in samples:
        try:
            outcome = _reference_check(db, executor, statement)
        except Exception as exc:
            outcome = (False, f"reference check on {statement.template}: {exc!r}")
        if outcome is not None:
            results.append(outcome)
    return {"reference": results, "cost": _window_cost(db, statements)}


def _window_cost(db, statements) -> float:
    """Estimated cost of a window's statements under the current indexes."""
    from repro.optimizer import Optimizer

    optimizer = Optimizer(db.stats_clone(name=f"{db.name}-window"))
    return sum(optimizer.explain(st.sql).total_cost for st in statements)


def serve_task(seed: int, windows: int, trace: bool) -> dict:
    from repro.core import ContinuousTuner
    from repro.executor import Executor
    from repro.workload import MonitoredExecutor
    from repro.workloads.tpch.datagen import load_tpch

    db = load_tpch(SCALE_FACTOR, seed)
    setup_s = perf() - _START

    outcome = Outcome()
    tracer = Tracer(trace, outcome)
    stream = ServeStream(seed)
    sampler = random.Random(seed * 31 + 5)
    monitored = MonitoredExecutor(db)
    plain = Executor(db)
    tuner = ContinuousTuner(db, budget_bytes=TUNER_BUDGET, monitor=monitored.monitor)
    hits0, misses0 = _analysis_counts()
    sql_hash = hashlib.sha256()
    latency = {"read": [], "write": []}
    counters = dict.fromkeys(
        ("rows_read", "rows_sent", "pages", "reads", "entries_written",
         "rows_written"), 0,
    )
    serve_s: list[float] = []
    cycle_s: list[float] = []
    ratios: list[float] = []
    per_window = []
    ever_dropped: set = set()
    created = dropped = recreated = 0

    for w in range(windows):
        statements = stream.window(w % 2, WINDOW_SIZE)
        window_cost = 0.0
        served = []
        with tracer:
            window_start = perf()
            for statement in statements:
                sql_hash.update(statement.sql.encode() + b";")
                start = perf()
                try:
                    result = monitored.execute(statement.sql)
                except Exception as exc:  # the benchmark must keep serving
                    outcome.check(False, f"{statement.template}: {exc!r}")
                    continue
                latency[statement.kind].append((perf() - start) * 1000.0)
                outcome.attempted += 1
                metrics = result.metrics
                window_cost += metrics.cpu_seconds(db.params)
                if statement.kind == "read":
                    served.append(statement)
                    counters["reads"] += 1
                    counters["rows_read"] += metrics.rows_read
                    counters["rows_sent"] += metrics.rows_sent
                    counters["pages"] += metrics.seq_pages + metrics.random_pages
                else:
                    counters["entries_written"] += metrics.index_entries_written
                    counters["rows_written"] += result.rowcount
            serve_s.append(perf() - window_start)

        samples = sampler.sample(served, min(REFERENCE_SAMPLES, len(served)))
        pre = _forked(lambda: _pre_cycle_checks(db, plain, samples, statements))
        for ok, message in pre["reference"]:
            outcome.check(ok, message)
        with tracer:
            start = perf()
            try:
                cycle = tuner.run_cycle()
            except Exception:
                outcome.check(False, "run_cycle: " + traceback.format_exc(limit=3))
                monitored.monitor.clear()
                continue
            cycle_s.append(perf() - start)
        outcome.attempted += 1
        monitored.monitor.clear()

        used = db.total_secondary_index_bytes()
        outcome.check(
            used <= TUNER_BUDGET,
            f"cycle {w}: {used} secondary-index bytes over the "
            f"{TUNER_BUDGET} budget",
        )
        keys_created = _index_keys(cycle.created)
        keys_dropped = _index_keys(cycle.dropped)
        created += len(keys_created)
        dropped += len(keys_dropped)
        recreated += sum(1 for key in keys_created if repr(key) in ever_dropped)
        ever_dropped.update(repr(key) for key in keys_dropped)
        ratios.append(_forked(lambda: _window_cost(db, statements)) / pre["cost"])
        per_window.append({
            "statements": len(statements),
            "exec_cost": window_cost,
            "created": keys_created,
            "dropped": keys_dropped,
        })

    hits1, misses1 = _analysis_counts()
    return {
        "task": "serve",
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(),
        "serve_s": serve_s,
        "cycle_s": cycle_s,
        "windows": per_window,
        "latency_ms": latency,
        "cost_ratios": ratios,
        "sql_digest": sql_hash.hexdigest()[:16],
        "counters": counters,
        "tuner": {"created": created, "dropped": dropped, "recreated": recreated},
        "analysis": [hits1 - hits0, (hits1 - hits0) + (misses1 - misses0)],
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
        "layers": tracer.summary("serve"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("task")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--windows", type=int, default=4)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.task == "serve":
        out = serve_task(args.seed, args.windows, args.trace)
    else:
        out = advise_task(args.task, args.seed, args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
