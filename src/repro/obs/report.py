"""Human-readable summaries of exported telemetry.

``repro.cli obs-report FILE`` renders any of the JSON artifacts the
subsystem produces -- a Chrome trace (``--trace`` output), a bench
result carrying a ``telemetry`` block, or a bare registry/telemetry
snapshot -- into the terminal summary a human reads first: where the
time went per phase, how many optimizer calls each phase spent, and the
headline counters.
"""

from __future__ import annotations

from typing import Any

from .tracer import ChromeSpan, load_chrome_trace

__all__ = ["render_report"]


def render_report(payload: Any) -> str:
    """Dispatch on the payload shape and render a text report."""
    sections: list[str] = []
    if isinstance(payload, dict):
        if "traceEvents" in payload:
            sections.append(_render_chrome(load_chrome_trace(payload)))
        telemetry = payload.get("telemetry")
        if isinstance(telemetry, dict):
            sections.append(_render_telemetry(telemetry))
        elif _looks_like_telemetry(payload):
            sections.append(_render_telemetry(payload))
    if not sections:
        return "no telemetry found (expected a trace, telemetry, or metrics JSON)"
    return "\n\n".join(s for s in sections if s.strip())


def _looks_like_telemetry(payload: dict) -> bool:
    return any(k in payload for k in ("metrics", "counters", "histograms", "spans"))


# -- chrome trace ------------------------------------------------------------


def _render_chrome(spans: list[ChromeSpan]) -> str:
    if not spans:
        return "trace: no complete events"
    total_us = max((s.ts_us + s.dur_us for s in spans), default=0.0) - min(
        (s.ts_us for s in spans), default=0.0
    )
    agg: dict[str, dict] = {}
    for span in spans:
        entry = agg.setdefault(
            span.name, {"count": 0, "total_us": 0.0, "max_us": 0.0, "calls": 0.0}
        )
        entry["count"] += 1
        entry["total_us"] += span.dur_us
        entry["max_us"] = max(entry["max_us"], span.dur_us)
        calls = span.args.get("optimizer_calls")
        if isinstance(calls, (int, float)):
            entry["calls"] += calls
    lines = [
        f"trace: {len(spans)} spans, {len(agg)} distinct names, "
        f"{total_us / 1e6:.3f}s wall",
        "",
        _row("span", "count", "total ms", "max ms", "opt calls"),
        "-" * 74,
    ]
    for name, entry in sorted(agg.items(), key=lambda kv: -kv[1]["total_us"]):
        lines.append(
            _row(
                name,
                entry["count"],
                f"{entry['total_us'] / 1e3:.2f}",
                f"{entry['max_us'] / 1e3:.2f}",
                int(entry["calls"]) if entry["calls"] else "-",
            )
        )
    return "\n".join(lines)


# -- telemetry / registry snapshots ------------------------------------------


def _render_telemetry(telemetry: dict) -> str:
    metrics = telemetry.get("metrics", telemetry)
    sections: list[str] = []

    spans = telemetry.get("spans")
    if isinstance(spans, dict) and spans:
        lines = [
            "phases:",
            _row("span", "count", "total ms", "max ms", "opt calls"),
            "-" * 74,
        ]
        for name, entry in sorted(
            spans.items(), key=lambda kv: -kv[1].get("total_seconds", 0.0)
        ):
            calls = (entry.get("attrs") or {}).get("optimizer_calls")
            lines.append(
                _row(
                    name,
                    entry.get("count", 0),
                    f"{entry.get('total_seconds', 0.0) * 1e3:.2f}",
                    f"{entry.get('max_seconds', 0.0) * 1e3:.2f}",
                    int(calls) if calls else "-",
                )
            )
        sections.append("\n".join(lines))

    counters = metrics.get("counters") or {}
    whatif = _render_whatif(counters)
    if whatif:
        sections.append(whatif)
    if counters:
        lines = ["counters:"]
        for name, by_label in sorted(counters.items()):
            for label, value in sorted(by_label.items()):
                suffix = f"{{{label}}}" if label else ""
                lines.append(f"  {name}{suffix} = {value:g}")
        sections.append("\n".join(lines))

    gauges = metrics.get("gauges") or {}
    if gauges:
        lines = ["gauges:"]
        for name, by_label in sorted(gauges.items()):
            for label, value in sorted(by_label.items()):
                suffix = f"{{{label}}}" if label else ""
                lines.append(f"  {name}{suffix} = {value:g}")
        sections.append("\n".join(lines))

    histograms = metrics.get("histograms") or {}
    if histograms:
        lines = [
            "histograms:",
            _row("histogram", "count", "mean", "p50", "p95/p99"),
            "-" * 74,
        ]
        for name, by_label in sorted(histograms.items()):
            for label, summary in sorted(by_label.items()):
                suffix = f"{{{label}}}" if label else ""
                lines.append(
                    _row(
                        f"{name}{suffix}",
                        summary.get("count", 0),
                        f"{summary.get('mean', 0.0):.4g}",
                        f"{summary.get('p50', 0.0):.4g}",
                        f"{summary.get('p95', 0.0):.4g}/{summary.get('p99', 0.0):.4g}",
                    )
                )
        sections.append("\n".join(lines))

    return "\n\n".join(sections)


def _counter_total(counters: dict, name: str) -> float:
    return sum((counters.get(name) or {}).values())


def _render_whatif(counters: dict) -> str:
    """The what-if cache headline: how rarely the optimizer was consulted."""
    evals = _counter_total(counters, "whatif.evaluations")
    if not evals:
        return ""
    hits = _counter_total(counters, "whatif.cache_hits")
    canonical = _counter_total(counters, "whatif.canonical_hits")
    evictions = _counter_total(counters, "whatif.cache_evictions")
    analyze_hits = _counter_total(counters, "analyze.cache_hits")
    lines = [
        "what-if cache:",
        f"  plan requests      = {evals:g}",
        f"  cache hits         = {hits:g}  ({hits / evals:.1%},"
        f" {canonical:g} via canonical subset rule)",
        f"  optimizer consults = {evals - hits:g}",
        f"  evictions          = {evictions:g}",
    ]
    if analyze_hits:
        lines.append(f"  analyze cache hits = {analyze_hits:g}")
    return "\n".join(lines)


def _row(name: Any, count: Any, a: Any, b: Any, c: Any) -> str:
    return (
        f"{str(name)[:40]:<40} {str(count):>6} {str(a):>10} "
        f"{str(b):>10} {str(c):>12}"
    )
