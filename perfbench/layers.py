"""The traced layers: entry points, and the end-to-end metric each should move.

Each :class:`Layer` names the program's public entry points wrapped in a
traced run (``module:attr`` or ``module:Class.attr``), the workloads on
which it is expected to record calls, and the end-to-end metric and
workload a change to it should move.  A layer with zero calls on a workload
that expects it is reported as *missing*, not as 0 s, and fails a check.
advise_aim is not in ``BENCHMARK.json``; its rows say what a run by hand
should show.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

ENUM, AIM, SERVE = "advise_enum", "advise_aim", "tune_serve"
ALL = (ENUM, AIM, SERVE)


def _statement_kind(args) -> str:
    stmt = args[1]
    text = stmt if isinstance(stmt, str) else type(stmt).__name__
    return "select" if text.lstrip()[:6].upper() == "SELECT" else "dml"


def _algorithm(args) -> str:
    return getattr(args[0], "name", "")


@dataclass(frozen=True)
class Layer:
    name: str
    targets: tuple[str, ...]
    expected: tuple[str, ...]
    moves: str
    split: Optional[Callable] = None
    split_keys: tuple[str, ...] = ()
    count: Optional[Callable] = None

    @property
    def span_names(self) -> list[str]:
        if self.split is None:
            return [self.name]
        return [f"{self.name}.{key}" for key in self.split_keys]


LAYERS: tuple[Layer, ...] = (
    Layer(
        "sqlparser.parse", ("repro.sqlparser.parser:parse",), ALL,
        "op1_p50_ms and op2_p50_ms (reads, writes) on tune_serve, where the "
        "executor and the monitor each parse every statement; flat on advise_*",
    ),
    Layer(
        "sqlparser.normalize",
        ("repro.sqlparser.normalizer:normalize_sql",
         "repro.sqlparser.normalizer:normalize_statement"),
        (AIM, SERVE),
        "op1_p50_ms and op2_p50_ms (reads, writes) on tune_serve; flat on advise_*",
    ),
    Layer(
        "optimizer.analyze",
        ("repro.optimizer.analysis_cache:analyze_cached",
         "repro.optimizer.optimizer:Optimizer.analyze"),
        ALL,
        "op1_p50_ms (Product B) on advise_aim; op1_p50_ms (reads) on tune_serve",
    ),
    Layer(
        "optimizer.whatif.plan", ("repro.optimizer.what_if:CostEvaluator.plan",),
        ALL,
        "op1_p50_ms and op2_p50_ms (AutoAdmin, Extend) on advise_enum (self "
        "time is the cache lookup path); near-flat on op2_p50_ms (JOB) of advise_aim",
    ),
    Layer(
        "obs.metric_handle",
        ("repro.obs.metrics:MetricsRegistry.counter",
         "repro.obs.metrics:MetricsRegistry.gauge",
         "repro.obs.metrics:MetricsRegistry.histogram",
         "repro.obs.metrics:_Metric.labels"),
        ALL,
        "op1_p50_ms and op2_p50_ms (AutoAdmin, Extend) on advise_enum",
    ),
    Layer(
        "optimizer.explain", ("repro.optimizer.optimizer:Optimizer.explain",),
        ALL,
        "op1_p50_ms and op2_p50_ms on advise_aim; op1_p50_ms (reads) on tune_serve",
    ),
    Layer(
        "optimizer.join_order",
        ("repro.optimizer.join_order:SelectPlanner.plan",), ALL,
        "op2_p50_ms (JOB) and op1_p50_ms (Product B) on advise_aim; "
        "op1_p50_ms (reads) on tune_serve",
    ),
    Layer(
        "optimizer.access_path",
        ("repro.optimizer.access_path:enumerate_paths",), ALL,
        "op1_p50_ms and op2_p50_ms on advise_aim; op1_p50_ms (reads) on tune_serve",
    ),
    Layer(
        "optimizer.selectivity",
        ("repro.optimizer.selectivity:atomic_selectivity",
         "repro.optimizer.selectivity:combined_range_selectivity",
         "repro.optimizer.selectivity:conjunction_selectivity",
         "repro.optimizer.selectivity:expr_selectivity"),
        ALL,
        "op1_p50_ms and op2_p50_ms on advise_aim; op1_p50_ms (reads) on tune_serve",
    ),
    Layer(
        "core.candidates",
        ("repro.core.candidates:CandidateGenerator.generate",), (AIM, SERVE),
        "op1_p50_ms (Product B) on advise_aim; advise_s (cycles) on tune_serve",
    ),
    Layer(
        "core.merge", ("repro.core.merge:merge_by_table",), (AIM, SERVE),
        "op1_p50_ms (Product B) on advise_aim; advise_s (cycles) on tune_serve",
    ),
    Layer(
        "core.ranking", ("repro.core.ranking:rank_candidates",), (AIM, SERVE),
        "op1_p50_ms (Product B) on advise_aim; advise_s (cycles) on tune_serve",
    ),
    Layer(
        "core.knapsack", ("repro.core.knapsack:knapsack_select",), (AIM, SERVE),
        "op1_p50_ms and op2_p50_ms on advise_aim; advise_s (cycles) on tune_serve",
    ),
    Layer(
        "core.advisor.recommend",
        ("repro.core.advisor:AimAdvisor.recommend",), (AIM, SERVE),
        "op1_p50_ms and op2_p50_ms on advise_aim; advise_s (cycles) on tune_serve",
    ),
    Layer(
        "baselines.select", ("repro.baselines.base:SelectionAlgorithm.select",),
        (ENUM,),
        "op1_p50_ms and op2_p50_ms (AutoAdmin, Extend) on advise_enum (self "
        "time outside what-if)",
        split=_algorithm, split_keys=("autoadmin", "extend"),
    ),
    Layer(
        "executor", ("repro.executor.executor:Executor.execute",), (SERVE,),
        "op1_p50_ms and cost_per_stmt on tune_serve (self time excludes "
        "parse, plan and row writes)",
        split=_statement_kind, split_keys=("select", "dml"),
    ),
    Layer(
        "engine.build_index",
        ("repro.engine.storage:TableStorage.build_index",), (SERVE,),
        "advise_s (cycles, which include index builds) on tune_serve",
        count=lambda args: len(args[0].rows),
    ),
    Layer(
        "engine.row_write",
        ("repro.engine.storage:TableStorage.insert_row",
         "repro.engine.storage:TableStorage.update_row",
         "repro.engine.storage:TableStorage.delete_row"),
        (SERVE,),
        "op2_p50_ms (writes) on tune_serve",
    ),
    Layer(
        "workload.monitor.record",
        ("repro.workload.monitor:WorkloadMonitor.record_execution",), (SERVE,),
        "op1_p50_ms and op2_p50_ms on tune_serve",
    ),
    Layer(
        "workload.select_representative",
        ("repro.workload.selection:select_representative_workload",), (SERVE,),
        "advise_s on tune_serve",
    ),
    Layer(
        "core.continuous.run_cycle",
        ("repro.core.continuous:ContinuousTuner.run_cycle",), (SERVE,),
        "advise_s and ddl_per_advise on tune_serve",
    ),
    Layer(
        "core.continuous.find_unused",
        ("repro.core.continuous:find_unused_indexes",), (SERVE,),
        "advise_s and ddl_per_advise on tune_serve",
    ),
)

#: Ratio and count metrics measured where the work happens.  Each entry:
#: (name, unit, better, workloads where it is defined, what it should move).
RATIOS: tuple[tuple[str, str, str, tuple[str, ...], str], ...] = (
    ("optimizer.analyze.hit_ratio", "ratio", "higher", ALL,
     "op1_p50_ms (Product B) on advise_aim; op1_p50_ms (reads) on tune_serve"),
    ("optimizer.whatif.hit_ratio", "ratio", "higher", ALL,
     "op1_p50_ms and op2_p50_ms (AutoAdmin, Extend) on advise_enum"),
    ("executor.rows_read_per_sent", "ratio", "lower", (SERVE,),
     "op1_p50_ms and cost_per_stmt on tune_serve"),
    ("engine.build_index.rows", "count", "lower", (SERVE,),
     "advise_s on tune_serve"),
    ("engine.index_entries_per_write", "ratio", "lower", (SERVE,),
     "op2_p50_ms on tune_serve"),
    ("engine.pages_per_read", "ratio", "lower", (SERVE,),
     "cost_per_stmt on tune_serve"),
    ("tuner.created", "count", "lower", (SERVE,),
     "advise_s and ddl_per_advise on tune_serve"),
    ("tuner.dropped", "count", "lower", (SERVE,),
     "advise_s and ddl_per_advise on tune_serve"),
    ("tuner.recreated", "count", "lower", (SERVE,),
     "ddl_per_advise on tune_serve (index churn)"),
    ("trace.overhead_pct", "%", "lower", ALL,
     "traced minus untraced wall time of the same passes"),
)


def span_names() -> list[str]:
    return [name for layer in LAYERS for name in layer.span_names]


def expected_spans(workload: str) -> list[str]:
    return [
        name for layer in LAYERS if workload in layer.expected
        for name in layer.span_names
    ]
