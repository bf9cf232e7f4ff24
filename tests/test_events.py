"""Tests for the decision journal (repro.obs.events) and fleet reports."""

from __future__ import annotations

import json

import pytest

from repro.catalog import Index
from repro.core import AimAdvisor, AimConfig
from repro.core.continuous import ContinuousTuner
from repro.obs import (
    AdvisorDecision,
    CycleEnd,
    CycleStart,
    DdlApplied,
    EventJournal,
    IndexRollback,
    RegressionFlagged,
    Tracer,
    WorkloadDigest,
    decode_event,
    emit,
    get_journal,
    read_events,
    reset_telemetry,
    set_journal,
    set_tracer,
)
from repro.obs import events as events_module
from repro.obs.events import SCHEMA_VERSION
from repro.obs.fleet_report import fleet_report_data, render_fleet_report
from repro.optimizer import CostEvaluator
from repro.workload import Workload, WorkloadMonitor


@pytest.fixture()
def journal():
    """A fresh process-wide journal, restored afterwards."""
    fresh = EventJournal()
    previous = set_journal(fresh)
    yield fresh
    set_journal(previous)


@pytest.fixture()
def tracer():
    fresh = Tracer()
    previous = set_tracer(fresh)
    yield fresh
    set_tracer(previous)


# -- journal mechanics --------------------------------------------------------


def test_emit_envelope_and_sequence(journal):
    r1 = emit(AdvisorDecision(action="accepted", reason="knapsack_selected",
                              index="idx_a", table="t"))
    r2 = emit(IndexRollback(index="idx_a", table="t"))
    assert r1["seq"] == 0 and r2["seq"] == 1
    assert r1["v"] == SCHEMA_VERSION
    assert r1["type"] == "advisor_decision"
    assert r2["type"] == "index_rollback"
    assert len(journal) == 2
    assert [r["seq"] for r in journal.records()] == [0, 1]


def test_emit_links_current_span(journal, tracer):
    with tracer.span("advisor.knapsack") as span:
        record = emit(AdvisorDecision(action="accepted",
                                      reason="knapsack_selected",
                                      index="idx_a"))
    assert record["span"] == "advisor.knapsack"
    assert record["span_id"] == span.span_id
    outside = emit(IndexRollback(index="idx_a"))
    assert outside["span"] is None and outside["span_id"] is None


def test_emit_rejects_non_events(journal):
    with pytest.raises(TypeError):
        emit({"type": "advisor_decision"})
    with pytest.raises(TypeError):
        emit("not an event")


def test_in_memory_cap_counts_drops(journal, monkeypatch):
    monkeypatch.setattr(events_module, "MAX_EVENTS", 3)
    j = EventJournal()
    for i in range(5):
        j.emit(IndexRollback(index=f"i{i}"))
    assert len(j) == 3
    assert j.dropped == 2
    # Sequence numbering keeps going past the cap.
    assert j.emit(IndexRollback(index="last"))["seq"] == 5


def test_events_of_filters_by_type_or_class(journal):
    emit(CycleStart(database="a"))
    emit(IndexRollback(index="i"))
    emit(CycleStart(database="b"))
    assert len(journal.events_of("cycle_start")) == 2
    assert len(journal.events_of(CycleStart)) == 2
    assert len(journal.events_of(IndexRollback)) == 1


def test_reset_clears_buffer_and_sequence(journal):
    emit(CycleStart(database="a"))
    journal.reset()
    assert len(journal) == 0
    assert emit(CycleStart(database="a"))["seq"] == 0


# -- file round trip ----------------------------------------------------------


def test_journal_file_round_trip(tmp_path, journal):
    path = tmp_path / "j.jsonl"
    journal.bind(str(path))
    emit(CycleStart(database="db1", queries=3, budget_bytes=1024))
    emit(AdvisorDecision(action="accepted", reason="knapsack_selected",
                         index="idx_t_a", table="t", columns=("a", "b"),
                         benefit=1.5, database="db1"))
    emit(WorkloadDigest(database="db1", window=2, queries=1, executions=9,
                        top=({"sql": "SELECT 1", "executions": 9,
                              "cpu_avg": 0.1, "benefit": 0.4},)))
    emit(CycleEnd(database="db1", created=("idx_t_a",), improvement=0.25))
    journal.close()

    records = read_events(str(path))
    assert [r["seq"] for r in records] == [0, 1, 2, 3]
    assert records == journal.records()

    # decode_event rebuilds the typed dataclasses, tuples restored.
    decision = decode_event(records[1])
    assert isinstance(decision, AdvisorDecision)
    assert decision.columns == ("a", "b")
    assert decision.benefit == 1.5
    digest = decode_event(records[2])
    assert isinstance(digest, WorkloadDigest)
    assert digest.top[0]["executions"] == 9


def test_decode_event_tolerates_unknown_types():
    assert decode_event({"type": "from_the_future", "v": 1}) is None
    assert decode_event({"v": 1}) is None


def test_read_events_rejects_newer_schema(tmp_path):
    path = tmp_path / "future.jsonl"
    record = {"seq": 0, "ts": 0.0, "v": SCHEMA_VERSION + 1,
              "type": "cycle_start", "database": "x"}
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(ValueError, match="newer"):
        read_events(str(path))


def test_read_events_rejects_bad_json_and_missing_version(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("{not json\n")
    with pytest.raises(ValueError, match="not a JSON record"):
        read_events(str(path))
    path.write_text(json.dumps({"seq": 0, "type": "cycle_start"}) + "\n")
    with pytest.raises(ValueError, match="schema version"):
        read_events(str(path))


# -- emitter integration ------------------------------------------------------


def tuning_workload() -> Workload:
    return Workload.from_sql([
        ("SELECT amount FROM orders WHERE created < 10000", 50.0),
        ("SELECT name FROM users WHERE city = 'c3' AND age > 75", 30.0),
    ])


def test_advisor_emits_decisions(db, journal, tracer):
    recommendation = AimAdvisor(db).recommend(
        tuning_workload(), budget_bytes=10 << 20
    )
    assert recommendation.created
    decisions = journal.events_of(AdvisorDecision)
    accepted = [d for d in decisions if d["action"] == "accepted"]
    assert {d["index"] for d in accepted} >= {
        rec.index.name for rec in recommendation.created
    }
    # Decisions are emitted inside advisor phase spans (span linkage).
    assert all(d["span"] for d in decisions)
    assert all(d["database"] == db.name for d in decisions)


class _RegressingEvaluator(CostEvaluator):
    """Reports every statement at twice its base cost under a
    configuration holding an index on *column*, so validation (Eq. 4)
    rejects such indexes."""

    def __init__(self, db, column: str):
        super().__init__(db)
        self.column = column

    def cost(self, stmt, config=()):
        if any(self.column in idx.columns for idx in config):
            return 2.0 * super().cost(stmt)
        return super().cost(stmt, config)


@pytest.mark.parametrize(
    "covering_phase, column, phase",
    [(False, "created", "narrow"), (True, "amount", "covering")],
)
def test_validation_regression_journals_the_victims_phase(
    db, journal, covering_phase, column, phase
):
    workload = Workload.from_sql([
        *[(q.sql, q.weight) for q in tuning_workload()],
        ("SELECT u.name, o.amount FROM users u, orders o "
         "WHERE u.id = o.user_id AND o.status = 'paid' AND u.city = 'c1'", 20.0),
    ])
    config = AimConfig(
        seek_threshold=5.0,
        covering_weight_fraction=0.0,
        covering_phase=covering_phase,
    )
    evaluator = _RegressingEvaluator(db, column)
    rec = AimAdvisor(db, config).recommend(workload, 50 << 20, evaluator=evaluator)
    victims = [
        d for d in journal.events_of(AdvisorDecision)
        if d["reason"] == "validation_regression"
    ]
    assert [d["index"] for d in victims] == [
        idx.name for idx in rec.rejected_for_regression
    ]
    assert victims and {d["phase"] for d in victims} == {phase}


def test_tuning_cycle_emits_lifecycle_events(db, journal, tracer):
    reset_telemetry()
    monitor = WorkloadMonitor()
    evaluator = CostEvaluator(db)
    for query in tuning_workload():
        for _ in range(10):
            monitor.record_plan(query.sql, evaluator.plan(query.sql))
    tuner = ContinuousTuner(db, budget_bytes=10 << 20, monitor=monitor)
    result = tuner.run_cycle()

    types = [r["type"] for r in journal.records()]
    assert types[0] == "cycle_start"
    assert types[-1] == "cycle_end"
    assert "workload_digest" in types
    ddl = journal.events_of(DdlApplied)
    assert {r["index"] for r in ddl if r["action"] == "create"} == {
        idx.name for idx in result.created
    }
    end = journal.events_of(CycleEnd)[0]
    assert tuple(end["created"]) == tuple(i.name for i in result.created)
    assert end["database"] == db.name


def test_regression_detector_emits_flag_with_parsed_suspects(journal):
    from repro.fleet.regression import ContinuousRegressionDetector

    detector = ContinuousRegressionDetector(regression_threshold=1.5)
    # `users` appears as a substring of `user_stats`; only the index on
    # the genuinely referenced table may be suspected.
    detector.note_index_created(Index("users", ("city",)))
    detector.note_index_created(Index("user_stats", ("day",)))
    sql = "SELECT day FROM user_stats WHERE day > 5"

    first = WorkloadMonitor()
    entry = first._entry(sql)
    entry.record(1.0, 100, 1)
    assert detector.observe_window(first, database="alpha") == []

    second = WorkloadMonitor()
    entry = second._entry(sql)
    entry.record(9.0, 100, 1)
    events = detector.observe_window(second, database="alpha")
    assert len(events) == 1
    suspect_names = [i.name for i in events[0].suspect_indexes]
    assert suspect_names == ["idx_user_stats_day"]

    flagged = journal.events_of(RegressionFlagged)
    assert len(flagged) == 1
    assert flagged[0]["suspects"] == ["idx_user_stats_day"]
    assert flagged[0]["database"] == "alpha"
    assert flagged[0]["ratio"] == pytest.approx(9.0)


# -- fleet report -------------------------------------------------------------


def test_fleet_report_replay_is_deterministic(tmp_path, db, journal, tracer):
    """Rendering the live journal and rendering its re-read file agree."""
    path = tmp_path / "journal.jsonl"
    journal.bind(str(path))
    monitor = WorkloadMonitor()
    evaluator = CostEvaluator(db)
    for query in tuning_workload():
        for _ in range(10):
            monitor.record_plan(query.sql, evaluator.plan(query.sql))
    ContinuousTuner(db, budget_bytes=10 << 20, monitor=monitor).run_cycle()
    emit(RegressionFlagged(normalized_sql="SELECT x FROM t", ratio=2.5,
                           before_cpu_avg=1.0, after_cpu_avg=2.5,
                           suspects=("idx_t_x",), database=db.name))
    emit(IndexRollback(index="idx_t_x", table="t", database=db.name))
    journal.close()

    live = render_fleet_report(journal.records())
    replayed = render_fleet_report(read_events(str(path)))
    assert live == replayed
    assert "decision audit:" in live
    assert "regression timeline:" in live
    assert "REGRESSED x2.50" in live
    assert "ROLLBACK idx_t_x" in live
    assert "workload digests:" in live

    data = fleet_report_data(read_events(str(path)))
    assert data == fleet_report_data(journal.records())
    assert data["cycles"][0]["database"] == db.name
    assert data["regressions"][-1]["kind"] == "rollback"


def test_fleet_report_empty_journal():
    report = render_fleet_report([])
    assert "empty" in report
    assert "no regressions observed" in report
