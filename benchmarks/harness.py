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

from repro.obs import reset_telemetry, telemetry_snapshot

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


GIB = 1 << 30
MIB = 1 << 20

#: Bench output must reach the terminal even under pytest's capture --
#: the whole point of a bench is the regenerated table in its stdout.
print = functools.partial(print, file=sys.__stdout__, flush=True)  # noqa: A001


def save_results(name: str, payload: Any) -> pathlib.Path:
    """Persist a bench's machine-readable output.

    Every result JSON carries a ``telemetry`` block -- the process-wide
    metrics registry plus per-span-name aggregates, in which each advisor
    phase sums its seconds and ``optimizer_calls`` -- making the paper's
    "cheap advisor" claim decomposable per bench run.
    List payloads are wrapped as ``{"results": [...], "telemetry": ...}``;
    ``update_experiments.py`` unwraps them transparently.
    """
    telemetry = telemetry_snapshot()
    if isinstance(payload, dict):
        payload = {**payload, "telemetry": telemetry}
    else:
        payload = {"results": payload, "telemetry": telemetry}
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=str)
    # Scope each bench's telemetry to its own result file.
    reset_telemetry()
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
