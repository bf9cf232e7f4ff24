"""The repository benchmark: advisor latency, tuned serving and tuning cost.

Usage (from the repository root)::

    python3 perfbench/run.py --workload advise_enum --seed 1 --seconds 55 --trace 0

Workloads (one client, one process at a time, no worker pool):

* ``advise_enum`` -- cold AutoAdmin, then cold Extend, on Product A;
* ``tune_serve``  -- a closed-loop statement stream over stored TPC-H with a
  continuous-tuning cycle after every window;
* ``advise_aim``  -- cold AIM on Product B, then on JOB.  Runnable by hand;
  ``BENCHMARK.json`` leaves it out (see ``DESIGN.md``).

Every task runs in a fresh interpreter (``child.py``) with the ``REPRO_*``
switches unset and ``PYTHONHASHSEED`` pinned.  Advise workloads run their
tasks in turn, each at least twice, alternating two hash seeds so the
determinism check compares them, and start another task only while it is
expected to end within ``--seconds``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` each task runs once untraced and once traced, and the
line carries the per-layer metrics.  The lines above it are a
human-readable report: environment, input digests, every metric by name,
and failures.  ``perfbench/DESIGN.md`` explains each metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import LAYERS, RATIOS, expected_spans, span_names  # noqa: E402

TASKS = {
    "advise_enum": ("enum:autoadmin", "enum:extend"),
    "advise_aim": ("aim:product_b", "aim:job"),
}
SERVE = "tune_serve"

#: Switches that would change what is measured; children run without them.
UNSET_ENV = (
    "REPRO_WHATIF_FASTPATH", "REPRO_PROFILE", "REPRO_BENCH_JOBS",
    "REPRO_STATUS_FILE",
)

#: Wall-clock limit for the whole run, children included.
DEADLINE_S = 170.0

#: Untraced runs of each advise task per run, at least (two hash seeds).
MIN_SAMPLES = 2

#: Rough seconds of a tune_serve run outside its windows (set-up, the
#: hash-seed replay) and per window (serving, checks, tuning cycle).  They
#: set the window count from ``--seconds``; the count depends on nothing
#: measured, so the deterministic metrics repeat.
SERVE_FIXED_S = 15.0
SERVE_WINDOW_S = 7.5


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failure of the program)."""


# -- helpers --------------------------------------------------------------------------


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_pct(n: int) -> int:
    """The highest whole percentile with at least ten of *n* samples beyond it."""
    return max(50, math.floor(100.0 * (1.0 - 10.0 / n)))


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str:
    """HEAD of the enclosing git checkout, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Runner:
    """Spawns child tasks sequentially under one deadline."""

    def __init__(self, seed: int):
        self.seed = seed
        self.started = time.perf_counter()
        self.env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def run(self, task: str, hashseed: int, trace: bool = False,
            windows: int | None = None) -> dict:
        remaining = DEADLINE_S - self.elapsed()
        if remaining <= 0:
            raise BenchError("deadline passed before every task ran")
        cmd = [sys.executable, str(HERE / "child.py"), task,
               "--seed", str(self.seed)]
        if windows is not None:
            cmd += ["--windows", str(windows)]
        if trace:
            cmd.append("--trace")
        env = dict(self.env, PYTHONHASHSEED=str(hashseed))
        try:
            proc = subprocess.run(
                cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"task {task} passed the {DEADLINE_S:.0f}s deadline")
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(
                f"task {task} exited with {proc.returncode}:\n{proc.stderr[-3000:]}"
            )
        return json.loads(proc.stdout.strip().splitlines()[-1])


# -- workloads ------------------------------------------------------------------------


def run_advise(workload: str, runner: Runner, seconds: int, trace: bool) -> dict:
    tasks = TASKS[workload]
    samples: dict[str, list[dict]] = {task: [] for task in tasks}
    if trace:
        # One untraced pass of each task, then one traced.
        for traced in (False, True):
            for task in tasks:
                samples[task].append(runner.run(task, hashseed=int(traced), trace=traced))
    else:
        # Tasks in turn until each has its minimum; then the task with the
        # least time measured so far, so each task's samples spread over the
        # whole run and each averages over about as much of it.  Past the
        # minimum, a task runs only if its last run says it will end within
        # the run length.
        took: dict[str, float] = {}
        total = dict.fromkeys(tasks, 0.0)
        while True:
            fits = [t for t in tasks if len(samples[t]) < MIN_SAMPLES] or [
                t for t in tasks if runner.elapsed() + took[t] <= seconds
            ]
            if not fits:
                break
            task = min(fits, key=lambda t: (len(samples[t]) >= MIN_SAMPLES, total[t]))
            start = runner.elapsed()
            samples[task].append(runner.run(task, hashseed=len(samples[task]) % 2))
            took[task] = runner.elapsed() - start
            total[task] += took[task]
    timed = {task: outs[:1] if trace else outs for task, outs in samples.items()}
    first = [outs[0] for outs in samples.values()]
    per_task = {task: [out["wall_s"] for out in outs] for task, outs in timed.items()}
    children = [out for outs in samples.values() for out in outs]
    result = {
        "children": children,
        "setup": [out["setup_s"] for out in children],
        # One cold call of each task.
        "advise": (sum(statistics.median(w) for w in per_task.values()),
                   min(len(w) for w in per_task.values())),
        "per_task": per_task,
        "ratios": [out["cost_after"] / out["cost_before"] for out in first],
        # op1 and op2 are the workload's two tasks, one cold call each.
        "ops": {
            op: [wall * 1000.0 for wall in per_task[task]]
            for op, task in zip(("op1", "op2"), tasks)
        },
        "statements": sum(o["statements"] for o in first),
        "cost_per_stmt": sum(o["stmt_cost_sum"] for o in first)
        / sum(o["statements"] for o in first),
        "ddl": statistics.mean(out["indexes"] for out in first),
        "checks": determinism_advise(samples),
        "inputs": [
            f"{out['task']}: statements={out['statements']} "
            f"(select {out['selects']}, dml {out['statements'] - out['selects']}) "
            f"sql={out['sql_digest']} recommendation={out['recommendation']} "
            f"indexes={out['indexes']} optimizer_calls={out['optimizer_calls']} "
            f"runs={len(samples[out['task']])}"
            for out in first
        ],
    }
    if trace:
        traced = [outs[1] for outs in samples.values()]
        result["layers"] = [(out["task"], out["layers"]) for out in traced]
        result["overhead_pct"] = 100.0 * (
            sum(o["wall_s"] for o in traced) / sum(o["wall_s"] for o in first) - 1.0
        )
        result["analysis"] = (
            sum(o["analysis_hits"] for o in traced),
            sum(o["analysis_lookups"] for o in traced),
        )
    return result


def determinism_advise(samples: dict[str, list[dict]]) -> tuple[int, list[str]]:
    """Deterministic outputs of a task must agree across its runs (and hash seeds)."""
    keys = ("cost_before", "cost_after", "recommendation", "indexes", "stmt_cost_sum")
    failures = []
    checks = 0
    for task, (out, *others) in samples.items():
        for other in others:
            checks += 1
            diff = [k for k in keys if other[k] != out[k]]
            if diff:
                failures.append(f"{task}: {diff} differ between hash seeds")
    return checks, failures


def run_serve(runner: Runner, seconds: int, trace: bool) -> dict:
    windows = max(2, 2 * round((seconds - SERVE_FIXED_S) / (2 * SERVE_WINDOW_S)))
    main = runner.run("serve", hashseed=0, trace=trace, windows=windows)
    # The replay runs the first window under another hash seed, untraced.
    replay = runner.run("serve", hashseed=1, windows=1)
    failures = []
    for w, (a, b) in enumerate(zip(main["windows"], replay["windows"])):
        if a != b:
            failures.append(f"window {w}: exec cost or DDL differ between hash seeds")
    n = len(replay["windows"])
    if main["cost_ratios"][:n] != replay["cost_ratios"][:n]:
        failures.append("tuning-cycle cost ratios differ between hash seeds")
    cycles = len(main["cycle_s"])
    tuner = main["tuner"]
    statements = sum(w["statements"] for w in main["windows"])
    reads = len(main["latency_ms"]["read"])
    result = {
        "children": [main, replay],
        "setup": [main["setup_s"], replay["setup_s"]],
        # One cycle after each phase, as on the advise workloads one call
        # of each task; median over the pairs.
        "advise": (
            statistics.median(
                sum(main["cycle_s"][i:i + 2]) for i in range(0, cycles - 1, 2)
            ),
            cycles // 2,
        ),
        "cycles": main["cycle_s"],
        "ratios": main["cost_ratios"],
        "ops": {"op1": main["latency_ms"]["read"], "op2": main["latency_ms"]["write"]},
        "statements": statements,
        "cost_per_stmt": sum(w["exec_cost"] for w in main["windows"]) / statements,
        "ddl": (tuner["created"] + tuner["dropped"]) / max(1, cycles),
        "checks": (1 + n, failures),
        "inputs": [
            f"serve: windows={windows} statements={statements} "
            f"(read {reads}, write {statements - reads}) sql={main['sql_digest']} "
            f"outputs={hashlib.sha256(json.dumps(main['windows']).encode()).hexdigest()[:16]} "
            f"created={tuner['created']} dropped={tuner['dropped']} "
            f"recreated={tuner['recreated']}"
        ],
    }
    if trace:
        result["layers"] = [("serve", main["layers"])]
        # The first window ran traced in the main task and untraced in the
        # replay.
        result["overhead_pct"] = 100.0 * (
            (main["serve_s"][0] + sum(main["cycle_s"][:1]))
            / (replay["serve_s"][0] + sum(replay["cycle_s"][:1])) - 1.0
        )
        result["traced_child"] = main
    return result


# -- metrics --------------------------------------------------------------------------


def end_to_end(result: dict) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, samples)."""
    ops = result["ops"]
    advise_s, advise_n = result["advise"]
    # Each task reports the peak of its own timed process; checks that
    # allocate run after that reading or in a forked process.
    rss_mb = max(c["peak_rss_mb"] for c in result["children"])
    return {
        "setup_s": (statistics.median(result["setup"]), "s", len(result["setup"])),
        "advise_s": (advise_s, "s", advise_n),
        "est_cost_saving": (1.0 - geomean(result["ratios"]), "ratio", len(result["ratios"])),
        "op1_p50_ms": (statistics.median(ops["op1"]), "ms", len(ops["op1"])),
        "op2_p50_ms": (statistics.median(ops["op2"]), "ms", len(ops["op2"])),
        "cost_per_stmt": (result["cost_per_stmt"], "cost", result["statements"]),
        "ddl_per_advise": (result["ddl"], "count", len(result["ratios"])),
        "peak_rss_mb": (rss_mb, "MiB", len(result["children"])),
    }


def per_layer(workload: str, result: dict) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics summed over the traced children, plus missing layers."""
    totals = {name: {"calls": 0, "self_s": 0.0, "misses": 0, "count": 0} for name in span_names()}
    for _task, summary in result["layers"]:
        for name, entry in summary.items():
            for key, value in entry.items():
                totals[name][key] += value
    metrics: dict[str, tuple[float, str]] = {}
    for name, entry in totals.items():
        calls = entry["calls"]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (entry["self_s"], "s")
        metrics[f"{name}.us"] = (entry["self_s"] / calls * 1e6 if calls else 0.0, "us")
    missing = [name for name in expected_spans(workload) if totals[name]["calls"] == 0]

    plan = totals["optimizer.whatif.plan"]
    values = {
        "optimizer.whatif.hit_ratio":
            1.0 - plan["misses"] / plan["calls"] if plan["calls"] else 0.0,
        "engine.build_index.rows": totals["engine.build_index"]["count"],
        "trace.overhead_pct": result["overhead_pct"],
    }
    if workload == SERVE:
        child = result["traced_child"]
        c = child["counters"]
        values.update({
            "optimizer.analyze.hit_ratio": _ratio(*child["analysis"]),
            "executor.rows_read_per_sent": _ratio(c["rows_read"], c["rows_sent"]),
            "engine.index_entries_per_write": _ratio(c["entries_written"], c["rows_written"]),
            "engine.pages_per_read": _ratio(c["pages"], c["reads"]),
            "tuner.created": child["tuner"]["created"],
            "tuner.dropped": child["tuner"]["dropped"],
            "tuner.recreated": child["tuner"]["recreated"],
        })
    else:
        values["optimizer.analyze.hit_ratio"] = _ratio(*result["analysis"])
    for name, unit, _better, workloads, _moves in RATIOS:
        metrics[name] = (values.get(name, 0.0) if workload in workloads else 0.0, unit)
    return metrics, missing


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- report ---------------------------------------------------------------------------


def headline_numbers(workload: str, result: dict, e2e: dict) -> list[tuple[str, float, str]]:
    """The workload's headline numbers under their descriptive names."""
    rows = [("est_cost_ratio", geomean(result["ratios"]), "ratio")]
    if workload in TASKS:
        names = {"enum:autoadmin": "autoadmin_s", "enum:extend": "extend_s",
                 "aim:product_b": "aim_product_b_s", "aim:job": "aim_job_s"}
        for task, walls in result["per_task"].items():
            rows.append((names[task], statistics.median(walls), "s"))
    else:
        reads, writes = result["ops"]["op1"], result["ops"]["op2"]
        rows += [
            ("read_p50_ms", e2e["op1_p50_ms"][0], "ms"),
            (f"read_tail_ms (p{tail_pct(len(reads))})",
             percentile(reads, tail_pct(len(reads))), "ms"),
            ("write_p50_ms", e2e["op2_p50_ms"][0], "ms"),
            (f"write_tail_ms (p{tail_pct(len(writes))})",
             percentile(writes, tail_pct(len(writes))), "ms"),
            ("tune_cycle_s", statistics.median(result["cycles"]), "s"),
            ("exec_cost_per_stmt", e2e["cost_per_stmt"][0], "cost"),
            ("ddl_per_cycle", e2e["ddl_per_advise"][0], "count"),
        ]
    return rows


def check_names(emitted: set[str], trace: bool) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if emitted != declared:
        raise BenchError(
            f"metrics differ from BENCHMARK.json: extra {sorted(emitted - declared)}, "
            f"missing {sorted(declared - emitted)}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*TASKS, SERVE])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args.seed)
    try:
        if args.workload == SERVE:
            result = run_serve(runner, args.seconds, trace)
        else:
            result = run_advise(args.workload, runner, args.seconds, trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(c["attempted"] for c in result["children"])
    failed = sum(c["failed"] for c in result["children"])
    errors = [e for c in result["children"] for e in c["errors"]]
    n_checks, determinism = result["checks"]
    attempted += n_checks
    failed += len(determinism)
    errors += determinism
    if trace:
        # A layer the map expects on this workload must record calls: zero
        # calls means its entry points are no longer reached, and its
        # metrics would read as a 100% gain.
        metrics, missing = per_layer(args.workload, result)
        attempted += len(expected_spans(args.workload))
        failed += len(missing)
        errors += [f"layer {name} recorded no calls (missing)" for name in missing]

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} wall={runner.elapsed():.1f}s")
    print(f"env: python {platform.python_version()} on {platform.machine()}, "
          f"nproc {os.cpu_count()}, jobs 1, commit {commit()}, "
          f"source {source_digest()}, unset {','.join(UNSET_ENV)}, "
          f"PYTHONHASHSEED 0/1 alternating")
    for line in result["inputs"]:
        print(f"inputs: {line}")
    print(f"error_rate: {failed}/{attempted} = {failed / attempted:.6f}")
    for message in errors:
        print(f"FAILED: {message}")

    if trace:
        print(f"{'layer metric':44s} {'value':>14s} unit")
        for name, (value, unit) in metrics.items():
            shown = "missing" if name.rsplit(".", 1)[0] in missing else f"{value:14.6g}"
            print(f"{name:44s} {shown:>14s} {unit}")
        for task, summary in result["layers"]:
            top = sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])[:6]
            print(f"top self time, {task}: " + ", ".join(
                f"{name} {entry['self_s']:.2f}s" for name, entry in top))
        print("layer map (what each layer should move, on which workload):")
        for layer in LAYERS:
            print(f"  {layer.name}: {layer.moves}")
        for name, _unit, _better, _workloads, moves in RATIOS:
            print(f"  {name}: {moves}")
        emitted = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    else:
        e2e = end_to_end(result)
        print(f"{'metric':32s} {'value':>12s} unit  samples")
        for name, value, unit in headline_numbers(args.workload, result, e2e):
            print(f"{name:32s} {value:12.6g} {unit}")
        for name, (value, unit, samples) in e2e.items():
            print(f"{name:32s} {value:12.6g} {unit:5s} {samples}")
        emitted = {name: {"value": value, "unit": unit} for name, (value, unit, _n) in e2e.items()}

    try:
        check_names(set(emitted), trace)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": emitted,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
