"""What-if fast-path microbenchmark: cold vs. warm vs. parallel costing.

Runs the AIM pipeline plus two enumeration baselines (AutoAdmin, Extend)
over the Fig 3 Product A workload in four evaluator modes:

* ``legacy``   -- ``REPRO_WHATIF_FASTPATH=0``: the seed behaviour (exact,
  table-projected plan cache only), fresh evaluator.
* ``cold``     -- fast path on (relevance pruning + canonical cache),
  fresh evaluator.
* ``warm``     -- fast path on, the *same* evaluator re-running the
  pipeline: the repeated-tuning case.  Every plan request repeats, so a
  warm run should make (almost) no optimizer calls.
* ``parallel`` -- fast path on, fresh evaluator with ``jobs`` worker
  processes for workload costing.

The recommended configurations and final workload costs must be
identical in every mode -- the fast path and the process pool are pure
optimizations.  The headline claims checked here (and by the CI perf
smoke job) are deterministic, not wall-clock: warm runs make at least 5x
fewer uncached optimizer calls than the seed behaviour, and cold
AutoAdmin and Extend make at least 5x fewer plan requests
(``whatif.evaluations``) than costing every scored configuration over the
whole workload would (``configs_scored x statements``) -- the
incremental :class:`~repro.optimizer.WorkloadCoster` at work.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.baselines import ALL_ALGORITHMS
from repro.obs import get_registry
from repro.optimizer import CostEvaluator
from repro.optimizer.analysis_cache import analysis_cache_info
from repro.workloads.production import PRODUCTS, build_product

from harness import bench_jobs, print_header, print_table, save_results

ALGORITHMS = ("aim", "autoadmin", "extend")
PRODUCT = "A"
BUDGET = 256 << 20

#: The acceptance bar: warm fast-path runs vs. seed-behaviour runs.
MIN_CALL_REDUCTION = 5.0

#: The acceptance bar: cold plan requests vs. whole-workload costing of
#: every scored configuration.
MIN_REQUEST_REDUCTION = 5.0


def _count(name: str) -> int:
    return int(get_registry().counter(name).value())


def _run(algorithm: str, product, evaluator) -> dict:
    algo = ALL_ALGORITHMS[algorithm](product.db)
    requests = _count("whatif.evaluations")
    scored = _count("whatif.coster.scored")
    start = time.perf_counter()
    result = algo.select(product.workload, BUDGET, evaluator=evaluator)
    wall = time.perf_counter() - start
    return {
        "algorithm": algorithm,
        "wall_seconds": round(wall, 3),
        "optimizer_calls": result.optimizer_calls,
        "plan_requests": _count("whatif.evaluations") - requests,
        "configs_scored": _count("whatif.coster.scored") - scored,
        "cost_after": result.cost_after,
        "indexes": sorted(
            f"{i.table}({','.join(i.columns)})" for i in result.indexes
        ),
    }


def _evaluator_stats(evaluator: CostEvaluator) -> dict:
    stats = evaluator.cache_stats()
    requests = (
        stats["exact_hits"] + stats["canonical_hits"] + stats["optimizer_calls"]
    )
    stats["hit_rate"] = round(
        (stats["exact_hits"] + stats["canonical_hits"]) / max(1, requests), 4
    )
    return stats


def run_bench(jobs: int) -> dict:
    modes: dict[str, list[dict]] = {}
    cache_stats: dict[str, dict] = {}
    previous = os.environ.get("REPRO_WHATIF_FASTPATH")
    try:
        # Seed behaviour: fast path off, fresh evaluator per algorithm.
        os.environ["REPRO_WHATIF_FASTPATH"] = "0"
        product = build_product(PRODUCTS[PRODUCT])
        modes["legacy"] = [_run(name, product, None) for name in ALGORITHMS]

        os.environ["REPRO_WHATIF_FASTPATH"] = "1"
        # Fresh product: cold caches (stats-attached selectivity memos
        # die with the previous product's stats objects).
        product = build_product(PRODUCTS[PRODUCT])
        evaluators = {
            name: CostEvaluator(product.db, include_schema_indexes=False)
            for name in ALGORITHMS
        }
        modes["cold"] = [
            _run(name, product, evaluators[name]) for name in ALGORITHMS
        ]
        # Same evaluators again: the repeated-tuning case.
        modes["warm"] = [
            _run(name, product, evaluators[name]) for name in ALGORITHMS
        ]
        for name, evaluator in evaluators.items():
            cache_stats[name] = _evaluator_stats(evaluator)
            evaluator.close()

        parallel_evs = {
            name: CostEvaluator(
                product.db, include_schema_indexes=False, jobs=jobs
            )
            for name in ALGORITHMS
        }
        modes["parallel"] = [
            _run(name, product, parallel_evs[name]) for name in ALGORITHMS
        ]
        for evaluator in parallel_evs.values():
            evaluator.close()
    finally:
        if previous is None:
            os.environ.pop("REPRO_WHATIF_FASTPATH", None)
        else:
            os.environ["REPRO_WHATIF_FASTPATH"] = previous

    by_algo = {
        name: {mode: runs[i] for mode, runs in modes.items()}
        for i, name in enumerate(ALGORITHMS)
    }
    statements = len(product.workload.pairs())
    comparisons = {}
    for name, runs in by_algo.items():
        legacy_calls = runs["legacy"]["optimizer_calls"]
        comparisons[name] = {
            "cold_plan_requests": runs["cold"]["plan_requests"],
            "cold_full_costing_requests": runs["cold"]["configs_scored"] * statements,
            "legacy_calls": legacy_calls,
            "cold_calls": runs["cold"]["optimizer_calls"],
            "warm_calls": runs["warm"]["optimizer_calls"],
            "warm_reduction": round(
                legacy_calls / max(1, runs["warm"]["optimizer_calls"]), 1
            ),
            "identical_results": all(
                runs[mode]["indexes"] == runs["legacy"]["indexes"]
                and runs[mode]["cost_after"] == runs["legacy"]["cost_after"]
                for mode in ("cold", "warm", "parallel")
            ),
        }
    return {
        "product": PRODUCT,
        "budget_bytes": BUDGET,
        "statements": statements,
        "jobs": jobs,
        "modes": modes,
        "comparisons": comparisons,
        "cache_stats": cache_stats,
        "analysis_cache": analysis_cache_info(),
    }


@pytest.mark.benchmark(group="perf")
def test_bench_perf(benchmark):
    jobs = bench_jobs(default=4)
    results = benchmark.pedantic(run_bench, args=(jobs,), rounds=1, iterations=1)

    print_header(
        f"What-if fast path -- product {PRODUCT}, jobs={jobs} "
        "(optimizer calls and plan requests per advisor run)"
    )
    rows = []
    for name, comp in results["comparisons"].items():
        runs = {mode: results["modes"][mode][ALGORITHMS.index(name)]
                for mode in results["modes"]}
        stats = results["cache_stats"][name]
        rows.append([
            name,
            comp["legacy_calls"], comp["cold_calls"], comp["warm_calls"],
            f'{comp["warm_reduction"]}x',
            f'{stats["hit_rate"] * 100:.1f}%',
            stats["canonical_hits"], stats["evictions"],
            runs["cold"]["configs_scored"],
            runs["cold"]["plan_requests"],
            f'{runs["legacy"]["wall_seconds"]}s',
            f'{runs["cold"]["wall_seconds"]}s',
            f'{runs["parallel"]["wall_seconds"]}s',
        ])
    print_table(
        ["algo", "legacy", "cold", "warm", "warm redux", "hit rate",
         "canonical", "evict", "scored", "requests", "t legacy", "t cold",
         "t parallel"],
        rows,
    )
    save_results("bench_perf", results)

    for name, comp in results["comparisons"].items():
        # Same answers in every mode: the fast path is a pure optimization.
        assert comp["identical_results"], name
    # The headline: repeated advisor runs over a warm evaluator beat the
    # seed behaviour by >= 5x on optimizer calls -- for AIM and for the
    # enumeration baselines.
    for name in ("aim", "autoadmin", "extend"):
        comp = results["comparisons"][name]
        assert (
            comp["warm_calls"] * MIN_CALL_REDUCTION <= comp["legacy_calls"]
        ), (name, comp)
    # Greedy moves re-plan only the statements a changed index can affect.
    for name in ("autoadmin", "extend"):
        comp = results["comparisons"][name]
        assert (
            comp["cold_plan_requests"] * MIN_REQUEST_REDUCTION
            <= comp["cold_full_costing_requests"]
        ), (name, comp)
