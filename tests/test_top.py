"""Tests for the ``repro top`` dashboard (repro.obs.top)."""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.obs.top import render_top, run_top

STATUS = {
    "format": "repro.obs.snapshots",
    "v": 1,
    "source": "advise:aim",
    "pid": 4242,
    "started": 1000.0,
    "snapshots": [
        {
            "ts": 1000.0, "mono": 10.0, "pid": 4242,
            "metrics": {
                "counters": {
                    "optimizer.calls": {"kind=select": 5.0},
                    "whatif.evaluations": {"": 20.0},
                    "whatif.cache_hits": {"": 10.0},
                },
                "gauges": {}, "histograms": {},
            },
        },
        {
            "ts": 1010.0, "mono": 20.0, "pid": 4242,
            "metrics": {
                "counters": {
                    "advisor.runs": {"": 1.0},
                    "optimizer.calls": {"kind=select": 15.0},
                    "whatif.evaluations": {"": 40.0},
                    "whatif.cache_hits": {"": 30.0},
                    "whatif.canonical_hits": {"": 4.0},
                    "analyze.cache_hits": {"": 12.0},
                },
                "gauges": {
                    "advisor.phase.active": {"phase=ranking": 1.0},
                },
                "histograms": {
                    "advisor.phase.seconds": {
                        "phase=baseline_cost": {"count": 1, "sum": 0.05, "max": 0.05},
                        "phase=ranking": {"count": 1, "sum": 0.002, "max": 0.002},
                    },
                },
            },
            "extras": {
                "journal_tail": [
                    {"seq": 0, "type": "cycle_start", "database": "db1",
                     "queries": 9},
                    {"seq": 1, "type": "advisor_decision", "action": "accepted",
                     "reason": "knapsack_selected",
                     "index": "idx_orders_user_id"},
                ],
                "profiler": {
                    "hz": 97.0, "samples": 120, "overhead_pct": 0.8,
                    "top_frames": [
                        {"frame": "optimizer.Optimizer.explain",
                         "samples": 60, "pct": 50.0},
                        {"frame": "selectivity.estimate",
                         "samples": 30, "pct": 25.0},
                    ],
                    "regions": {"advisor.ranking": 70, "cli.advise": 50},
                },
            },
        },
    ],
}

GOLDEN = """\
repro top — source advise:aim  pid 4242  snapshots 2  age 2.5s
==============================================================================
tuning cycles
  advisor runs      1   tuning cycles      0   indexes recommended      0
  phase                      runs   total ms     max ms    state
  baseline_cost                 1      50.00      50.00     idle
  ranking                       1       2.00       2.00  RUNNING

optimizer / what-if
  optimizer calls          15   (1.0/s)
  what-if requests         40   (2.0/s)
  cache hit rate        75.0%   (canonical 4, analyze 12)

journal tail
  [    0] cycle_start          db1 queries=9
  [    1] advisor_decision     accepted knapsack_selected idx_orders_user_id

top profiled frames (97 Hz, 120 samples, overhead 0.8%)
   50.0%  optimizer.Optimizer.explain
   25.0%  selectivity.estimate
  regions: advisor.ranking (70), cli.advise (50)"""


def test_render_top_golden():
    """The full frame is a pure function of (status, now): golden output."""
    assert render_top(STATUS, now=1012.5, window=30.0) == GOLDEN


def test_render_top_empty_status():
    frame = render_top({"source": "x", "pid": 1, "snapshots": []}, now=0.0)
    assert "no snapshots captured yet" in frame


def test_run_top_once_renders_file(tmp_path):
    path = tmp_path / "status.json"
    path.write_text(json.dumps(STATUS))
    out = io.StringIO()
    assert run_top(["--once", "--status", str(path)], out=out) == 0
    frame = out.getvalue()
    assert "repro top — source advise:aim" in frame
    assert "optimizer / what-if" in frame
    assert "top profiled frames" in frame


def test_run_top_once_missing_status(tmp_path, capsys):
    assert run_top(["--once", "--status", str(tmp_path / "nope.json")]) == 2
    assert "no status" in capsys.readouterr().err


def test_run_top_rejects_newer_schema(tmp_path):
    path = tmp_path / "status.json"
    path.write_text(json.dumps({**STATUS, "v": 99}))
    assert run_top(["--once", "--status", str(path)]) == 2


@pytest.mark.slow
def test_advise_publishes_status_for_top(tmp_path, capsys):
    """End to end: `repro advise --status F` then `repro top --once`."""
    import pathlib

    examples = pathlib.Path(__file__).parent.parent / "examples" / "cli_files"
    status = tmp_path / "status.json"
    rc = main([
        "advise",
        "--schema", str(examples / "schema.sql"),
        "--workload", str(examples / "workload.sql"),
        "--budget", "64MB",
        "--status", str(status),
    ])
    assert rc == 0
    assert status.exists()
    capsys.readouterr()
    assert main(["top", "--once", "--status", str(status)]) == 0
    frame = capsys.readouterr().out
    assert "source advise:aim" in frame
    assert "advisor runs" in frame
    assert "cache hit rate" in frame
