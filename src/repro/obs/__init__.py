"""Telemetry for the AIM reproduction (see ``docs/OBSERVABILITY.md``).

Three complementary instruments share this package:

* :mod:`~repro.obs.tracer` -- hierarchical spans answering *where did the
  time go* (advisor phases, baseline runs, fleet sweeps), exportable as
  Chrome ``trace_event`` files;
* :mod:`~repro.obs.metrics` -- a process-wide registry of labeled
  counters/gauges/histograms answering *how often* (optimizer
  invocations by statement kind, what-if and analyze cache hits,
  statements quarantined at intake);
* :mod:`~repro.obs.events` -- an append-only, schema-versioned decision
  journal answering *why does the database look the way it does*
  (advisor accept/reject decisions, tuning cycles, applied DDL,
  regression flags/rollbacks, workload digests), serialized as JSONL and
  rendered by ``repro.cli fleet-report``.

All three have a process-wide default instance so instrumented library
code stays dependency-free: ``with trace("advisor.ranking"): ...``,
``get_registry().counter("workload.statements_skipped").inc()`` and
``emit(AdvisorDecision(...))`` record into whatever tracer/registry/journal
is current.
Each question has one instrument: per-phase seconds and optimizer calls
are span attributes (the ``spans`` block ``repro.cli obs-report``
renders), and per-layer wall time is measured from outside the program
by ``perfbench/run.py --trace 1``.
:func:`telemetry_snapshot` bundles tracer + registry into the JSON block
benches and the CLI attach to their results; :func:`reset_telemetry`
clears all three between runs (a journal's bound file is never touched).
"""

from __future__ import annotations

from .events import (
    AdvisorDecision,
    CycleEnd,
    CycleStart,
    DdlApplied,
    EventJournal,
    IndexRollback,
    OracleViolation,
    PlanEstimate,
    RegressionFlagged,
    StatementSkipped,
    WorkloadDigest,
    decode_event,
    emit,
    get_journal,
    read_events,
    set_journal,
)
from .metrics import (
    BoundMetric,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from .tracer import (
    Span,
    Tracer,
    get_tracer,
    load_chrome_trace,
    set_tracer,
    trace,
)

__all__ = [
    "AdvisorDecision",
    "BoundMetric",
    "Counter",
    "CycleEnd",
    "CycleStart",
    "DdlApplied",
    "EventJournal",
    "Gauge",
    "Histogram",
    "IndexRollback",
    "MetricsRegistry",
    "OracleViolation",
    "PlanEstimate",
    "RegressionFlagged",
    "Span",
    "StatementSkipped",
    "Tracer",
    "WorkloadDigest",
    "decode_event",
    "emit",
    "get_journal",
    "get_registry",
    "set_journal",
    "set_registry",
    "get_tracer",
    "set_tracer",
    "read_events",
    "trace",
    "load_chrome_trace",
    "telemetry_snapshot",
    "reset_telemetry",
]


def telemetry_snapshot() -> dict:
    """The ``telemetry`` block attached to bench results and CLI output:
    the registry snapshot plus per-span-name timing aggregates."""
    return {
        "metrics": get_registry().snapshot(),
        "spans": get_tracer().summary(),
    }


def reset_telemetry() -> None:
    """Zero the process-wide registry, tracer and journal buffer (between
    runs/tests).  A journal's bound JSONL file is left untouched -- only
    the in-memory view resets."""
    get_registry().reset()
    get_tracer().reset()
    get_journal().reset()
