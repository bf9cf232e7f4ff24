"""Append-only decision journal (the auditable half of ``repro.obs``).

While the tracer answers *where did the time go* and the metrics registry
*how often and how much*, the journal answers **why does the database look
the way it does**: every consequential decision -- a candidate index
accepted or evicted, a tuning cycle, applied DDL, a flagged regression and
its rollback, a per-window workload digest -- becomes one typed, immutable
event with a monotonic sequence number.  Events are serialized as JSON
Lines so a journal file is greppable, streamable, and diffable, and each
record carries the schema version plus the id of the tracer span that was
open when it was emitted, linking the *decision* record to the *timing*
record of the same run.

Usage mirrors the tracer/registry singletons::

    from repro.obs import emit, AdvisorDecision, get_journal

    get_journal().bind("decisions.jsonl")      # optional durable sink
    emit(AdvisorDecision(action="accepted", reason="knapsack_selected",
                         index="idx_orders_created", table="orders"))

``read_events(path)`` loads a journal back (validating the schema
version), and :mod:`repro.obs.fleet_report` renders audit reports from
the loaded records.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Any, ClassVar, Optional

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_TYPES",
    "AdvisorDecision",
    "CycleStart",
    "CycleEnd",
    "DdlApplied",
    "WorkloadDigest",
    "RegressionFlagged",
    "IndexRollback",
    "PlanEstimate",
    "OracleViolation",
    "StatementSkipped",
    "EventJournal",
    "get_journal",
    "set_journal",
    "emit",
    "read_events",
    "decode_event",
]

#: Version stamped into every record.  Bump on any field rename/removal
#: or semantic change; readers reject records from a *newer* version than
#: they understand (see ``read_events``), so schema breakage fails fast
#: instead of silently mis-rendering.
SCHEMA_VERSION = 1

#: In-memory retention cap per journal.
MAX_EVENTS = 100_000

#: Envelope keys the journal adds around an event's own fields.
_ENVELOPE_KEYS = ("seq", "ts", "v", "type", "span_id", "span")


# ---------------------------------------------------------------------------
# Typed events
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdvisorDecision:
    """One accept/reject transition of a candidate index in Algorithm 1.

    A candidate may appear several times along the pipeline (selected by
    the knapsack, later rejected by clone validation); the sequence of its
    events *is* its audit trail.
    """

    TYPE: ClassVar[str] = "advisor_decision"

    action: str                 # 'accepted' | 'rejected'
    reason: str                 # 'knapsack_selected' | 'knapsack_evicted'
                                # | 'covering_promoted' | 'subsumed_by_covering'
                                # | 'validation_regression'
                                # | 'below_min_improvement'
    index: str
    table: str = ""
    columns: tuple[str, ...] = ()
    phase: str = ""             # 'narrow' | 'covering' (when known)
    benefit: float = 0.0
    maintenance: float = 0.0
    size_bytes: int = 0
    database: str = ""


@dataclass(frozen=True)
class CycleStart:
    """A continuous-tuning cycle begins (one tuning interval)."""

    TYPE: ClassVar[str] = "cycle_start"

    database: str
    queries: int = 0            # representative workload size
    budget_bytes: int = 0


@dataclass(frozen=True)
class CycleEnd:
    """A continuous-tuning cycle finished, with its outcome accounting."""

    TYPE: ClassVar[str] = "cycle_end"

    database: str
    created: tuple[str, ...] = ()
    dropped: tuple[str, ...] = ()
    cost_before: float = 0.0
    cost_after: float = 0.0
    improvement: float = 0.0
    optimizer_calls: int = 0


@dataclass(frozen=True)
class DdlApplied:
    """One index DDL statement actually applied to a database."""

    TYPE: ClassVar[str] = "ddl_applied"

    action: str                 # 'create' | 'drop'
    index: str
    table: str = ""
    columns: tuple[str, ...] = ()
    database: str = ""
    statement: str = ""


@dataclass(frozen=True)
class WorkloadDigest:
    """Per-window snapshot of a :class:`~repro.workload.WorkloadMonitor`.

    ``top`` carries the highest-expected-benefit queries of the window
    (Eq. 5 ordering), each as ``{sql, executions, cpu_avg, benefit}``.
    """

    TYPE: ClassVar[str] = "workload_digest"

    database: str
    window: int = 0
    queries: int = 0
    executions: int = 0
    total_cpu: float = 0.0
    rows_read: int = 0
    rows_sent: int = 0
    top: tuple[dict, ...] = ()


@dataclass(frozen=True)
class RegressionFlagged:
    """The continuous regression detector flagged one query (Sec. VII-C)."""

    TYPE: ClassVar[str] = "regression_flagged"

    normalized_sql: str
    before_cpu_avg: float = 0.0
    after_cpu_avg: float = 0.0
    ratio: float = 1.0
    suspects: tuple[str, ...] = ()
    database: str = ""


@dataclass(frozen=True)
class IndexRollback:
    """An automation-created index was reverted after a regression."""

    TYPE: ClassVar[str] = "index_rollback"

    index: str
    table: str = ""
    database: str = ""
    reason: str = "regression"


@dataclass(frozen=True)
class PlanEstimate:
    """Estimated-vs-actual row counts for one plan node (EXPLAIN ANALYZE)."""

    TYPE: ClassVar[str] = "plan_estimate"

    sql: str
    node: str
    est_rows: float = 0.0
    actual_rows: int = 0
    q_error: float = 1.0


@dataclass(frozen=True)
class OracleViolation:
    """A ``repro.qa`` fuzz oracle caught an invariant violation.

    Emitted by the fuzz runner for every violation so journals from
    nightly fuzz runs are auditable with the same tooling as advisor
    decisions (new event type, schema version unchanged per the
    append-only versioning rules).
    """

    TYPE: ClassVar[str] = "oracle_violation"

    oracle: str                 # 'differential' | 'selectivity' | ...
    seed: int = 0               # the generator seed of the failing case
    statement: str = ""
    detail: str = ""
    shrunk: bool = False        # a minimized repro was produced
    case_file: str = ""         # path of the serialized repro, if written


@dataclass(frozen=True)
class StatementSkipped:
    """Workload intake quarantined a statement no advisor can plan."""

    TYPE: ClassVar[str] = "statement_skipped"

    position: int               # 1-based position in the workload
    reason: str                 # 'parse' | 'resolve'
    detail: str = ""            # the parser's or resolver's message
    statement: str = ""
    workload: str = ""


EVENT_TYPES: dict[str, type] = {
    cls.TYPE: cls
    for cls in (
        AdvisorDecision,
        CycleStart,
        CycleEnd,
        DdlApplied,
        WorkloadDigest,
        RegressionFlagged,
        IndexRollback,
        PlanEstimate,
        OracleViolation,
        StatementSkipped,
    )
}


# ---------------------------------------------------------------------------
# The journal
# ---------------------------------------------------------------------------

class EventJournal:
    """Thread-safe append-only event log with optional JSONL sink.

    Args:
        path: when given, every record is appended (and flushed) to this
            file as one JSON line; the in-memory buffer is kept either way
            so tests and the CLI can inspect a run without a file.

    The in-memory buffer keeps at most :data:`MAX_EVENTS` records.  File
    emission continues past the cap (the file is the durable record);
    overflowed in-memory records are counted in ``dropped``.
    """

    def __init__(self, path: Optional[str] = None):
        self.dropped = 0
        self._lock = threading.Lock()
        self._seq = 0
        self._records: list[dict] = []
        self._fh = None
        if path is not None:
            self.bind(path)

    # -- sink management -----------------------------------------------------

    def bind(self, path: str) -> "EventJournal":
        """Attach (or switch) the durable JSONL sink."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
            self._fh = open(path, "a")
        return self

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    # -- recording -----------------------------------------------------------

    def emit(self, event: Any) -> dict:
        """Append one typed event; returns the serialized record."""
        event_type = getattr(event, "TYPE", None)
        if event_type not in EVENT_TYPES:
            raise TypeError(f"not a journal event: {event!r}")
        payload = _jsonable_payload(asdict(event))
        # Span linkage: whichever tracer span is open where the decision
        # was made (advisor phase, tuning cycle, ...).
        from .tracer import get_tracer

        span = get_tracer().current()
        with self._lock:
            record = {
                "seq": self._seq,
                "ts": time.time(),
                "v": SCHEMA_VERSION,
                "type": event_type,
                "span_id": span.span_id if span is not None else None,
                "span": span.name if span is not None else None,
            }
            record.update(payload)
            self._seq += 1
            if len(self._records) < MAX_EVENTS:
                self._records.append(record)
            else:
                self.dropped += 1
            if self._fh is not None:
                self._fh.write(json.dumps(record) + "\n")
                self._fh.flush()
        return record

    # -- inspection ----------------------------------------------------------

    def records(self) -> list[dict]:
        """All in-memory records, in sequence order."""
        with self._lock:
            return list(self._records)

    def events_of(self, event_type: str | type) -> list[dict]:
        """In-memory records of one type (name or event class)."""
        name = event_type if isinstance(event_type, str) else event_type.TYPE
        return [r for r in self.records() if r["type"] == name]

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def reset(self) -> None:
        """Clear the in-memory buffer and restart sequence numbering.

        The bound file (if any) is left untouched -- it is the durable
        record; only the per-run view resets.
        """
        with self._lock:
            self._records.clear()
            self._seq = 0
            self.dropped = 0


def _jsonable_payload(payload: dict) -> dict:
    out = {}
    for key, value in payload.items():
        if isinstance(value, tuple):
            value = list(value)
        out[key] = value
    return out


# ---------------------------------------------------------------------------
# Reading journals back
# ---------------------------------------------------------------------------

def read_events(source: str) -> list[dict]:
    """Load a JSONL journal file, validating the schema version.

    Records stamped with a *newer* schema version than this reader
    understands raise ``ValueError`` (fail fast on version skew); records
    from older versions load as-is -- version-1 fields are append-only, so
    old records stay renderable.
    """
    records: list[dict] = []
    with open(source) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{source}:{lineno}: not a JSON record: {exc}"
                ) from exc
            version = record.get("v")
            if not isinstance(version, int) or version < 1:
                raise ValueError(
                    f"{source}:{lineno}: missing/invalid schema version: "
                    f"{version!r}"
                )
            if version > SCHEMA_VERSION:
                raise ValueError(
                    f"{source}:{lineno}: journal schema v{version} is newer "
                    f"than this reader (v{SCHEMA_VERSION})"
                )
            records.append(record)
    records.sort(key=lambda r: r.get("seq", 0))
    return records


def decode_event(record: dict) -> Optional[Any]:
    """Rebuild the typed event dataclass from a serialized record.

    Unknown event types (or records missing required fields) return
    ``None`` -- readers must tolerate event types added after they were
    written, per the versioning rules in ``docs/OBSERVABILITY.md``.
    """
    cls = EVENT_TYPES.get(record.get("type", ""))
    if cls is None:
        return None
    kwargs = {}
    for f in fields(cls):
        if f.name in record:
            value = record[f.name]
            if isinstance(value, list):
                value = tuple(
                    dict(v) if isinstance(v, dict) else v for v in value
                )
            kwargs[f.name] = value
    try:
        return cls(**kwargs)
    except TypeError:
        return None


# ---------------------------------------------------------------------------
# Process-wide journal
# ---------------------------------------------------------------------------

_journal = EventJournal()


def get_journal() -> EventJournal:
    """The process-wide journal library code emits into."""
    return _journal


def set_journal(journal: EventJournal) -> EventJournal:
    """Swap the process-wide journal (tests, per-run isolation)."""
    global _journal
    previous = _journal
    _journal = journal
    return previous


def emit(event: Any) -> dict:
    """Emit one event into the process-wide journal."""
    return get_journal().emit(event)
