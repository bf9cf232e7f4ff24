"""Tests for the repro.obs telemetry subsystem."""

from __future__ import annotations

import json
import threading

import pytest

from repro.core import AimAdvisor
from repro.engine import ExecutionMetrics, INNODB
from repro.obs import (
    BoundMetric,
    MetricsRegistry,
    Tracer,
    get_registry,
    get_tracer,
    load_chrome_trace,
    reset_telemetry,
    set_registry,
    set_tracer,
    telemetry_snapshot,
    trace,
)
from repro.obs import tracer as tracer_module
from repro.obs.report import render_report
from repro.workload import Workload


def root_spans(tracer: Tracer) -> list:
    """Finished spans opened with no enclosing span."""
    return [s for s in tracer.spans() if s.parent_id is None]


@pytest.fixture()
def tracer():
    """A fresh process-wide tracer, restored afterwards."""
    fresh = Tracer()
    previous = set_tracer(fresh)
    yield fresh
    set_tracer(previous)


# -- tracer ------------------------------------------------------------------


def test_span_nesting_and_ordering(tracer):
    with tracer.span("outer") as outer:
        with tracer.span("first"):
            pass
        with tracer.span("second") as second:
            with tracer.span("inner"):
                pass
        assert tracer.current() is outer

    roots = root_spans(tracer)
    assert [r.name for r in roots] == ["outer"]
    assert [c.name for c in roots[0].children] == ["first", "second"]
    assert [c.name for c in second.children] == ["inner"]
    # Finish order: children close before their parents.
    assert [s.name for s in tracer.spans()] == [
        "first", "inner", "second", "outer",
    ]
    assert all(s.duration >= 0 for s in tracer.spans())
    assert outer.duration >= second.duration


def test_span_attrs_and_module_level_trace(tracer):
    with trace("phase", size=3) as span:
        span.set(extra="x")
    finished = tracer.find("phase")
    assert len(finished) == 1
    assert finished[0].attrs == {"size": 3, "extra": "x"}


def test_tracer_span_cap(monkeypatch):
    monkeypatch.setattr(tracer_module, "MAX_SPANS", 5)
    tracer = Tracer()
    for i in range(10):
        with tracer.span(f"s{i}"):
            pass
    assert len(tracer.spans()) == 5
    assert tracer.dropped == 5


def test_tracer_thread_safety(tracer):
    """Spans from concurrent threads keep per-thread trees intact."""
    n_threads, per_thread = 8, 25
    barrier = threading.Barrier(n_threads)

    def worker(tid: int) -> None:
        barrier.wait()
        for i in range(per_thread):
            with tracer.span(f"t{tid}", i=i):
                with tracer.span(f"t{tid}.child"):
                    pass

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert len(tracer.spans()) == n_threads * per_thread * 2
    roots = root_spans(tracer)
    assert len(roots) == n_threads * per_thread
    for root in roots:
        assert len(root.children) == 1
        assert root.children[0].name == f"{root.name}.child"
        assert root.children[0].thread_id == root.thread_id


def test_chrome_trace_export_round_trip(tracer):
    with tracer.span("root", calls=7):
        with tracer.span("leaf", note="n"):
            pass
    payload = json.loads(json.dumps(tracer.to_chrome_trace()))
    assert payload["displayTimeUnit"] == "ms"
    spans = load_chrome_trace(payload)
    by_name = {s.name: s for s in spans}
    assert set(by_name) == {"root", "leaf"}
    assert by_name["root"].args == {"calls": 7}
    assert by_name["leaf"].args == {"note": "n"}
    # The leaf lies inside the root interval.
    root, leaf = by_name["root"], by_name["leaf"]
    assert root.ts_us <= leaf.ts_us
    assert leaf.ts_us + leaf.dur_us <= root.ts_us + root.dur_us + 1.0
    # Durations survive the round trip (µs vs the tracer's seconds).
    originals = {s.name: s.duration for s in tracer.spans()}
    for name, span in by_name.items():
        assert span.dur_us == pytest.approx(originals[name] * 1e6, rel=1e-6)


def test_chrome_trace_file_round_trip(tmp_path, tracer):
    """write_chrome_trace -> load_chrome_trace yields the same spans."""
    with tracer.span("advisor.recommend", queries=4):
        with tracer.span("advisor.ranking", ranked=11):
            pass
        with tracer.span("advisor.knapsack"):
            pass
    path = tmp_path / "trace.json"
    tracer.write_chrome_trace(str(path))
    with open(path) as fh:
        payload = json.load(fh)
    spans = load_chrome_trace(payload)
    originals = tracer.spans()
    assert {s.name for s in spans} == {s.name for s in originals}
    by_name = {s.name: s for s in spans}
    assert by_name["advisor.recommend"].args == {"queries": 4}
    assert by_name["advisor.ranking"].args == {"ranked": 11}
    durations = {s.name: s.duration for s in originals}
    for name, span in by_name.items():
        assert span.dur_us == pytest.approx(durations[name] * 1e6, rel=1e-6)


# -- metrics -----------------------------------------------------------------


def test_counter_labels():
    registry = MetricsRegistry()
    calls = registry.counter("calls", "test counter")
    calls.inc(kind="select")
    calls.inc(2, kind="select")
    calls.inc(kind="dml")
    calls.inc()
    assert calls.value(kind="select") == 3
    assert calls.value(kind="dml") == 1
    assert calls.snapshot() == {"": 1.0, "kind=dml": 1.0, "kind=select": 3.0}
    with pytest.raises(ValueError):
        calls.inc(-1)


def test_registry_kind_conflict():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(ValueError):
        registry.histogram("x")


def test_gauge_set_and_inc():
    registry = MetricsRegistry()
    depth = registry.gauge("depth")
    depth.set(10, queue="q1")
    depth.inc(-3, queue="q1")
    assert depth.value(queue="q1") == 7


def test_histogram_percentiles_exact():
    registry = MetricsRegistry()
    hist = registry.histogram("latency")
    for v in range(1, 101):
        hist.observe(float(v), op="read")
    summary = hist.summary(op="read")
    assert summary["count"] == 100
    assert summary["sum"] == pytest.approx(5050.0)
    assert summary["min"] == 1.0
    assert summary["max"] == 100.0
    assert summary["mean"] == pytest.approx(50.5)
    assert summary["p50"] == pytest.approx(50.5)
    assert summary["p95"] == pytest.approx(95.05)
    assert summary["p99"] == pytest.approx(99.01)


def test_histogram_decimation_keeps_totals_exact():
    registry = MetricsRegistry()
    hist = registry.histogram("big")
    n = 20_000
    for v in range(n):
        hist.observe(float(v))
    summary = hist.summary()
    assert summary["count"] == n
    assert summary["sum"] == pytest.approx(n * (n - 1) / 2)
    assert summary["min"] == 0.0
    assert summary["max"] == float(n - 1)
    # Percentiles are approximate after decimation but must stay sane.
    assert summary["p50"] == pytest.approx(n / 2, rel=0.05)
    assert summary["p99"] == pytest.approx(n * 0.99, rel=0.05)


def test_metrics_thread_safety():
    registry = MetricsRegistry()
    counter = registry.counter("hits")
    child = counter.labels(worker="shared")
    n_threads, per_thread = 8, 5_000

    def worker() -> None:
        for _ in range(per_thread):
            child.inc()

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert child.value == n_threads * per_thread


def test_registry_reset_keeps_bound_children():
    registry = MetricsRegistry()
    child = registry.counter("c").labels(a="b")
    child.inc(5)
    registry.reset()
    assert child.value == 0
    child.inc()
    assert registry.counter("c").value(a="b") == 1


def test_registry_snapshot_shape():
    registry = MetricsRegistry()
    registry.counter("c").inc(kind="x")
    registry.gauge("g").set(2.5)
    registry.histogram("h").observe(1.0)
    snap = registry.snapshot()
    assert snap["counters"]["c"] == {"kind=x": 1.0}
    assert snap["gauges"]["g"] == {"": 2.5}
    assert snap["histograms"]["h"][""]["count"] == 1


# -- execution metrics -------------------------------------------------------


def test_execution_metrics_as_dict_round_trip():
    metrics = ExecutionMetrics(rows_read=10, rows_sent=2, random_pages=3)
    data = metrics.as_dict()
    assert data["rows_read"] == 10
    assert data["rows_sent"] == 2
    assert data["random_pages"] == 3
    assert set(data) == set(ExecutionMetrics().as_dict())
    # as_dict must cover every counter merge() accumulates.
    other = ExecutionMetrics(**data)
    other.merge(metrics)
    assert other.rows_read == 20
    assert other.cpu_seconds(INNODB) == pytest.approx(
        2 * metrics.cpu_seconds(INNODB)
    )


# -- advisor integration -----------------------------------------------------


def advisor_workload() -> Workload:
    return Workload.from_sql([
        ("SELECT amount FROM orders WHERE created < 10000", 50.0),
        ("SELECT name FROM users WHERE city = 'c3' AND age > 75", 30.0),
        ("SELECT u.name, o.amount FROM users u, orders o "
         "WHERE u.id = o.user_id AND o.status = 'paid' AND u.city = 'c1'",
         20.0),
    ])


def test_advisor_run_records_pipeline_phases(db, tracer):
    """Regression: an AIM advisor run records >= 5 named pipeline phases."""
    get_registry().reset()
    rec = AimAdvisor(db).recommend(advisor_workload(), budget_bytes=10 << 20)

    roots = [r for r in root_spans(tracer) if r.name == "advisor.recommend"]
    assert len(roots) == 1
    root = roots[0]
    phase_names = {c.name for c in root.children}
    assert len(phase_names) >= 5, phase_names
    assert {
        "advisor.baseline_cost",
        "advisor.candidate_generation",
        "advisor.ranking",
        "advisor.knapsack",
        "advisor.validation",
    } <= phase_names
    # The Sec. III-E merge runs inside candidate generation.
    generation = next(
        c for c in root.children if c.name == "advisor.candidate_generation"
    )
    assert "advisor.merge" in {c.name for c in generation.children}

    # runtime_seconds comes from the root span (single source of truth).
    assert rec.runtime_seconds == pytest.approx(root.duration, rel=0.01)

    # Per-phase optimizer-call attribution adds up to the reported total.
    deltas = [c.attrs.get("optimizer_calls", 0) for c in root.children]
    assert sum(deltas) == rec.optimizer_calls
    assert root.attrs["optimizer_calls"] == rec.optimizer_calls

    # The telemetry spans block carries the same decomposition per phase.
    spans = telemetry_snapshot()["spans"]
    for phase in phase_names:
        assert spans[phase]["count"] == 1
        assert spans[phase]["total_seconds"] > 0
        assert "optimizer_calls" in spans[phase]["attrs"], phase
    assert spans["advisor.ranking"]["attrs"]["optimizer_calls"] > 0
    assert (
        sum(spans[phase]["attrs"]["optimizer_calls"] for phase in phase_names)
        == spans["advisor.recommend"]["attrs"]["optimizer_calls"]
        == rec.optimizer_calls
    )


def test_baseline_select_traced(db, tracer):
    from repro.baselines import ALL_ALGORITHMS

    get_registry().reset()
    result = ALL_ALGORITHMS["dexter"](db).select(
        advisor_workload(), 10 << 20
    )
    spans = tracer.find("baseline.select")
    assert len(spans) == 1
    assert spans[0].attrs["algorithm"] == "dexter"
    # The select span attributes the selection-phase calls; the result
    # total also includes the before/after cost accounting calls, which
    # land on the baseline.cost_eval span.
    cost_spans = tracer.find("baseline.cost_eval")
    assert len(cost_spans) == 1
    assert cost_spans[0].attrs["algorithm"] == "dexter"
    assert (
        spans[0].attrs["optimizer_calls"]
        + cost_spans[0].attrs["optimizer_calls"]
        == result.optimizer_calls
    )
    assert result.runtime_seconds == pytest.approx(
        spans[0].duration, rel=0.01
    )


#: Every metric name the program registers; each has a reader (obs-report's
#: what-if block, a test, a bench or a CI step).  Any other question is
#: answered by a span attribute, a journal event or a result field.
KEPT_METRICS = {
    "optimizer.calls",
    "whatif.evaluations",
    "whatif.cache_hits",
    "whatif.canonical_hits",
    "whatif.cache_evictions",
    "whatif.coster.scored",
    "analyze.cache_hits",
    "workload.statements_skipped",
}


def test_registry_holds_only_read_metrics(db, tmp_path, tracer):
    """Advise, select, execute, tune, sweep the fleet and fuzz: the
    registry ends up with no metric outside ``KEPT_METRICS``."""
    from repro.baselines import ALL_ALGORITHMS
    from repro.core import ContinuousTuner
    from repro.executor import Executor
    from repro.fleet import (
        FleetCoordinator,
        PubSubChannel,
        ReplicaSet,
        StatsExportDaemon,
        StatsWarehouse,
    )
    from repro.qa import GenConfig, run_fuzz
    from repro.workload import WorkloadMonitor

    previous = set_registry(MetricsRegistry())
    try:
        workload = advisor_workload()
        AimAdvisor(db).recommend(workload, budget_bytes=10 << 20)
        ALL_ALGORITHMS["extend"](db).select(workload, 10 << 20)

        executor = Executor(db)
        for sql in [
            "SELECT name FROM users WHERE city = 'c3' AND age > 75",
            "SELECT u.name, o.amount FROM users u, orders o "
            "WHERE u.id = o.user_id AND o.status = 'paid'",
            "INSERT INTO orders (oid, user_id, amount, status, created) "
            "VALUES (90001, 3, 10, 'new', 5)",
            "UPDATE orders SET amount = amount + 1 WHERE created < 1000",
            "DELETE FROM orders WHERE oid = 90001",
        ]:
            executor.execute(sql)

        monitor = WorkloadMonitor()
        for _ in range(50):
            sql = "SELECT amount FROM orders WHERE created < 10000"
            monitor.record_execution(sql, executor.execute(sql).metrics, 8.0)
        ContinuousTuner(db, budget_bytes=20 << 20, monitor=monitor).run_cycle()

        replica_set = ReplicaSet(db, n_replicas=2)
        channel = PubSubChannel()
        warehouse = StatsWarehouse()
        channel.subscribe(warehouse.ingest)
        for query in workload:
            for _ in range(20):
                replica_set.serve(query)
        StatsExportDaemon("shop", replica_set, channel).run_once()
        coordinator = FleetCoordinator(warehouse, budget_bytes=20 << 20)
        coordinator.register("shop", replica_set)
        coordinator.scan_and_tune()
        coordinator.check_regressions("shop")

        report = run_fuzz(
            seed=7, iters=1, out_dir=str(tmp_path),
            gen_config=GenConfig(rows=(0, 40)),
        )
        assert report.cases_run == 1

        snapshot = get_registry().snapshot()
    finally:
        set_registry(previous)
    names = {name for kind in snapshot.values() for name in kind}
    assert "optimizer.calls" in names
    assert names <= KEPT_METRICS, sorted(names - KEPT_METRICS)


def test_telemetry_snapshot_and_reset(db, tracer):
    get_registry().reset()
    AimAdvisor(db).recommend(advisor_workload(), budget_bytes=10 << 20)
    snapshot = telemetry_snapshot()
    assert snapshot["metrics"]["counters"]["optimizer.calls"]
    assert "advisor.recommend" in snapshot["spans"]
    entry = snapshot["spans"]["advisor.recommend"]
    assert entry["count"] == 1
    assert entry["attrs"]["optimizer_calls"] > 0
    reset_telemetry()
    empty = telemetry_snapshot()
    assert empty["spans"] == {}
    assert not empty["metrics"]["counters"].get("optimizer.calls")


# -- report rendering --------------------------------------------------------


def test_render_report_chrome_trace(tracer):
    with tracer.span("advisor.ranking", optimizer_calls=12):
        pass
    report = render_report(tracer.to_chrome_trace())
    assert "advisor.ranking" in report
    assert "12" in report


def test_render_report_telemetry(db, tracer):
    get_registry().reset()
    AimAdvisor(db).recommend(advisor_workload(), budget_bytes=10 << 20)
    report = render_report({"telemetry": telemetry_snapshot()})
    assert "advisor.recommend" in report
    assert "optimizer.calls" in report
    ranking = telemetry_snapshot()["spans"]["advisor.ranking"]
    calls = ranking["attrs"]["optimizer_calls"]
    assert calls > 0
    row = next(line for line in report.splitlines()
               if line.startswith("advisor.ranking "))
    assert row.split()[-1] == str(calls)


def test_render_report_unknown_payload():
    assert "no telemetry" in render_report({"unrelated": 1})


# -- histogram reservoir -----------------------------------------------------


def test_histogram_reservoir_deterministic():
    """Same metric + labels => same seed => identical retained samples,
    read back through the quantiles ``summary()`` computes from them."""
    a, b = MetricsRegistry(), MetricsRegistry()
    for registry in (a, b):
        hist = registry.histogram("lat")
        for v in range(10_000):
            hist.observe(float(v), op="read")
    summary_a = a.histogram("lat").summary(op="read")
    assert summary_a == b.histogram("lat").summary(op="read")
    # A different label key reseeds, so its reservoir differs.
    c = MetricsRegistry()
    hist = c.histogram("lat")
    for v in range(10_000):
        hist.observe(float(v), op="write")
    summary_c = hist.summary(op="write")
    assert summary_c["count"] == summary_a["count"]
    assert summary_c["sum"] == summary_a["sum"]
    assert [summary_c[q] for q in ("p50", "p95", "p99")] != [
        summary_a[q] for q in ("p50", "p95", "p99")
    ]


def test_histogram_reset_reseeds_reservoir():
    registry = MetricsRegistry()
    hist = registry.histogram("lat")
    for v in range(10_000):
        hist.observe(float(v))
    first = hist.summary()
    registry.reset()
    for v in range(10_000):
        hist.observe(float(v))
    assert hist.summary() == first


def test_bound_metric_rebinds_after_registry_swap():
    previous = get_registry()
    first = MetricsRegistry()
    second = MetricsRegistry()
    set_registry(first)
    try:
        handle = BoundMetric("counter", "test.bound", "help", kind="x")
        assert "test.bound" not in first.metrics()   # binds at first event
        handle.inc()
        set_registry(second)
        handle.inc(2)
        assert first.counter("test.bound").value(kind="x") == 1
        assert second.counter("test.bound").value(kind="x") == 2
        assert handle.child().value == 2
        # Resetting in place keeps the bound child valid.
        second.reset()
        handle.inc()
        assert second.counter("test.bound").value(kind="x") == 1
    finally:
        set_registry(previous)
