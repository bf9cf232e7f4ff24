"""Shared benchmark harness.

Every bench regenerates one table or figure of the paper: it prints the
same rows/series the paper reports and writes a machine-readable JSON
next to this file (``benchmarks/results/<name>.json``) that EXPERIMENTS.md
references.
"""

from __future__ import annotations

import functools
import json
import pathlib
import sys
from typing import Any

from repro.obs import get_profiler, profiler_from_env, reset_telemetry, telemetry_snapshot

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# Opt-in sampling profiler for benches: REPRO_PROFILE=1 samples the whole
# bench run and save_results writes results/<name>.collapsed (flamegraph
# input) next to the JSON.
_PROFILER = profiler_from_env()
if _PROFILER is not None:
    _PROFILER.start()


GIB = 1 << 30
MIB = 1 << 20

#: Bench output must reach the terminal even under pytest's capture --
#: the whole point of a bench is the regenerated table in its stdout.
print = functools.partial(print, file=sys.__stdout__, flush=True)  # noqa: A001


def save_results(name: str, payload: Any) -> pathlib.Path:
    """Persist a bench's machine-readable output.

    Every result JSON carries a ``telemetry`` block -- the process-wide
    metrics registry (per-phase optimizer-call counts and timing
    histograms from the advisor spans) plus span timing aggregates --
    making the paper's "cheap advisor" claim decomposable per bench run.
    List payloads are wrapped as ``{"results": [...], "telemetry": ...}``;
    ``update_experiments.py`` unwraps them transparently.
    """
    profiler = get_profiler()
    if profiler is not None:
        # Settle the sampler so the telemetry block carries final numbers
        # (and the overhead gauge) before the snapshot below.
        profiler.stop()
    telemetry = telemetry_snapshot()
    if isinstance(payload, dict):
        payload = {**payload, "telemetry": telemetry}
    else:
        payload = {"results": payload, "telemetry": telemetry}
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=str)
    if profiler is not None and profiler.samples:
        profiler.write_collapsed(str(RESULTS_DIR / f"{name}.collapsed"))
        print(f"profile: {profiler.samples} samples -> "
              f"results/{name}.collapsed "
              f"(overhead {profiler.overhead_pct:.2f}%)")
    # Scope each bench's telemetry (and profile) to its own result file.
    reset_telemetry()
    if profiler is not None:
        profiler.start()
    return path


def print_header(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def print_table(headers: list[str], rows: list[list], widths=None) -> None:
    """Render an aligned text table."""
    if widths is None:
        widths = [
            max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
            for i, h in enumerate(headers)
        ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def fmt_bytes(n: float) -> str:
    if n >= GIB:
        return f"{n / GIB:.2f} GiB"
    if n >= MIB:
        return f"{n / MIB:.2f} MiB"
    return f"{n / 1024:.1f} KiB"


def fmt_pct(x: float) -> str:
    return f"{x * 100:.1f}%"
