"""``repro top`` -- a live terminal dashboard over published status.

Renders the :mod:`~repro.obs.snapshots` status document an instrumented
run publishes (advisor/bench/fleet processes write it via the snapshot
bus; ``repro top`` reads it from the shared default path or
``--status FILE``).  Plain ANSI -- a clear-screen escape per refresh, no
curses -- so it works in CI logs (``--once`` prints a single frame) and
over the dumbest SSH session alike.  ``--serve PORT`` exposes the same
document on a stdlib HTTP endpoint instead of drawing it.

The renderer is a pure function of the status document (plus an
injectable "now"), which is what makes the golden-output test possible.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Optional, Sequence

from .snapshots import (
    counter_rates,
    default_status_path,
    load_status,
    serve_status,
)

__all__ = ["render_top", "run_top", "make_top_parser"]

WIDTH = 78


def _counters(snap: dict) -> dict:
    return (snap.get("metrics") or {}).get("counters") or {}


def _gauges(snap: dict) -> dict:
    return (snap.get("metrics") or {}).get("gauges") or {}


def _histograms(snap: dict) -> dict:
    return (snap.get("metrics") or {}).get("histograms") or {}


def _total(by_label: Optional[dict]) -> float:
    return sum((by_label or {}).values())


def _label_value(label: str, key: str) -> str:
    """Pull one key out of a ``k=v,k2=v2`` snapshot label string."""
    for part in label.split(","):
        k, _, v = part.partition("=")
        if k == key:
            return v
    return ""


def _fmt_count(value: float) -> str:
    return f"{value:g}"


def _fmt_rate(value: Optional[float]) -> str:
    return f"{value:.1f}/s" if value is not None else "-"


def _rule(char: str = "-") -> str:
    return char * WIDTH


def render_top(
    status: dict, now: Optional[float] = None, window: float = 30.0
) -> str:
    """Render one dashboard frame from a status document."""
    now = time.time() if now is None else now
    snaps: list[dict] = status.get("snapshots") or []
    lines: list[str] = []

    source = status.get("source") or "?"
    pid = status.get("pid", "?")
    header = f"repro top — source {source}  pid {pid}  snapshots {len(snaps)}"
    if snaps:
        age = max(0.0, now - snaps[-1].get("ts", now))
        header += f"  age {age:.1f}s"
    lines.append(header[:WIDTH])
    lines.append(_rule("="))
    if not snaps:
        lines.append("(no snapshots captured yet)")
        return "\n".join(lines)

    latest = snaps[-1]
    rates = counter_rates([s for s in snaps if s["mono"] >= snaps[-1]["mono"] - window])
    counters = _counters(latest)

    lines += _render_cycles(latest, counters)
    lines += _render_optimizer(counters, rates)
    extras = latest.get("extras") or {}
    lines += _render_journal(extras.get("journal_tail") or [])
    lines += _render_profiler(extras.get("profiler"))
    return "\n".join(lines)


def _render_cycles(latest: dict, counters: dict) -> list[str]:
    lines = ["tuning cycles"]
    runs = _total(counters.get("advisor.runs"))
    cycles = _total(counters.get("fleet.tuning_cycles"))
    recommended = _total(counters.get("advisor.indexes.recommended"))
    lines.append(
        f"  advisor runs {_fmt_count(runs):>6}   tuning cycles "
        f"{_fmt_count(cycles):>6}   indexes recommended {_fmt_count(recommended):>6}"
    )
    phase_hist = _histograms(latest).get("advisor.phase.seconds") or {}
    active = _gauges(latest).get("advisor.phase.active") or {}
    if phase_hist:
        lines.append(f"  {'phase':<24} {'runs':>6} {'total ms':>10} {'max ms':>10} {'state':>8}")
        for label, summary in sorted(phase_hist.items()):
            phase = _label_value(label, "phase") or label
            state = "RUNNING" if active.get(label) else "idle"
            lines.append(
                f"  {phase:<24} {summary.get('count', 0):>6} "
                f"{summary.get('sum', 0.0) * 1e3:>10.2f} "
                f"{summary.get('max', 0.0) * 1e3:>10.2f} {state:>8}"
            )
    return lines


def _render_optimizer(counters: dict, rates: dict) -> list[str]:
    lines = ["", "optimizer / what-if"]
    calls = _total(counters.get("optimizer.calls"))
    evals = _total(counters.get("whatif.evaluations"))
    hits = _total(counters.get("whatif.cache_hits"))
    canonical = _total(counters.get("whatif.canonical_hits"))
    analyze_hits = _total(counters.get("analyze.cache_hits"))
    call_rate = _total(rates.get("optimizer.calls")) if "optimizer.calls" in rates else None
    eval_rate = _total(rates.get("whatif.evaluations")) if "whatif.evaluations" in rates else None
    lines.append(
        f"  optimizer calls  {_fmt_count(calls):>10}   ({_fmt_rate(call_rate)})"
    )
    lines.append(
        f"  what-if requests {_fmt_count(evals):>10}   ({_fmt_rate(eval_rate)})"
    )
    hit_pct = 100.0 * hits / evals if evals else 0.0
    lines.append(
        f"  cache hit rate   {hit_pct:>9.1f}%   "
        f"(canonical {_fmt_count(canonical)}, analyze {_fmt_count(analyze_hits)})"
    )
    return lines


def _render_journal(tail: list) -> list[str]:
    if not tail:
        return []
    lines = ["", "journal tail"]
    for record in tail[-8:]:
        if not isinstance(record, dict):
            continue
        seq = record.get("seq", "?")
        etype = record.get("type", "?")
        detail = _journal_detail(record)
        lines.append(f"  [{seq:>5}] {etype:<20} {detail}"[:WIDTH])
    return lines


def _journal_detail(record: dict) -> str:
    etype = record.get("type")
    if etype == "advisor_decision":
        return (
            f"{record.get('action', '')} {record.get('reason', '')} "
            f"{record.get('index', '')}"
        )
    if etype == "cycle_end":
        return (
            f"{record.get('database', '')} created={len(record.get('created') or [])} "
            f"improvement={record.get('improvement', 0.0):.3f}"
        )
    if etype == "cycle_start":
        return f"{record.get('database', '')} queries={record.get('queries', 0)}"
    if etype == "ddl_applied":
        return f"{record.get('action', '')} {record.get('index', '')}"
    for key in ("index", "normalized_sql", "sql", "database", "oracle"):
        if record.get(key):
            return str(record[key])
    return ""


def _render_profiler(profiler: Optional[dict]) -> list[str]:
    if not profiler or not profiler.get("samples"):
        return []
    lines = [
        "",
        (
            f"top profiled frames ({profiler.get('hz', 0):g} Hz, "
            f"{profiler.get('samples', 0)} samples, overhead "
            f"{profiler.get('overhead_pct', 0.0):.1f}%)"
        ),
    ]
    for frame in (profiler.get("top_frames") or [])[:10]:
        lines.append(
            f"  {frame.get('pct', 0.0):>5.1f}%  {frame.get('frame', '?')}"[:WIDTH]
        )
    regions = profiler.get("regions") or {}
    if regions:
        hot = sorted(regions.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
        lines.append(
            "  regions: "
            + ", ".join(f"{name} ({count})" for name, count in hot)
        )
    return lines


# -- CLI ----------------------------------------------------------------------


def make_top_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli top",
        description="Live dashboard over a run's published status "
        "snapshots (see docs/OBSERVABILITY.md).",
    )
    parser.add_argument("--status", default=None, metavar="FILE",
                        help="status file to watch (default: "
                        "$REPRO_STATUS_FILE or the temp-dir default)")
    parser.add_argument("--once", action="store_true",
                        help="print a single frame and exit (CI mode)")
    parser.add_argument("--interval", type=float, default=2.0,
                        help="refresh period in seconds (default 2)")
    parser.add_argument("--window", type=float, default=30.0,
                        help="rate window in seconds (default 30)")
    parser.add_argument("--serve", type=int, default=None, metavar="PORT",
                        help="serve the status JSON over HTTP instead "
                        "of rendering")
    return parser


def run_top(argv: Sequence[str], out: Any = None) -> int:
    """Entry point for ``repro.cli top``."""
    args = make_top_parser().parse_args(list(argv))
    out = sys.stdout if out is None else out
    path = args.status or default_status_path()

    if args.serve is not None:
        server = serve_status(path, port=args.serve)
        host, port = server.server_address[:2]
        print(f"serving {path} on http://{host}:{port}/ (Ctrl-C to stop)",
              file=out)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
        return 0

    if args.once:
        try:
            status = load_status(path)
        except (OSError, ValueError) as exc:
            print(f"repro top: no status at {path} ({exc}); run an "
                  "instrumented command (e.g. `repro advise`) first or "
                  "pass --status FILE", file=sys.stderr)
            return 2
        print(render_top(status, window=args.window), file=out)
        return 0

    try:
        while True:
            try:
                frame = render_top(load_status(path), window=args.window)
            except (OSError, ValueError) as exc:
                frame = f"repro top: waiting for status at {path} ({exc})"
            out.write("\x1b[2J\x1b[H" + frame + "\n")
            out.flush()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
