"""TryCoveringIndex decision tests (Sec. III-D)."""

from repro.catalog import Index
from repro.core import (
    AimConfig,
    MODE_COVERING,
    MODE_NON_COVERING,
    try_covering_index,
)
from repro.core.covering import covering_extension
from repro.optimizer import CostEvaluator


def test_bootstrap_without_plan_is_non_covering(db):
    ev = CostEvaluator(db)
    info = ev.analyze("SELECT name FROM users WHERE city = 'c1'")
    threshold = AimConfig().seek_threshold
    assert try_covering_index(info, None, threshold) == MODE_NON_COVERING


def test_seek_heavy_index_plan_triggers_covering(db):
    ev = CostEvaluator(db)
    sql = "SELECT amount FROM orders WHERE created < 30000"
    idx = Index("orders", ("created",), dataless=True)
    plan = ev.plan(sql, [idx])
    assert plan.uses_index(idx)
    info = ev.analyze(sql)
    assert try_covering_index(info, plan, 10.0) == MODE_COVERING


def test_low_seek_count_stays_non_covering(db):
    ev = CostEvaluator(db)
    sql = "SELECT amount FROM orders WHERE created < 30000"
    idx = Index("orders", ("created",), dataless=True)
    plan = ev.plan(sql, [idx])
    info = ev.analyze(sql)
    ssd_threshold = 1e9
    assert try_covering_index(info, plan, ssd_threshold) == MODE_NON_COVERING


def test_unsaturated_ipp_prefix_stays_non_covering(db):
    """Selectivity can still improve: an index missing an IPP column."""
    ev = CostEvaluator(db)
    sql = "SELECT amount FROM orders WHERE status = 'paid' AND user_id = 3"
    idx = Index("orders", ("status",), dataless=True)   # user_id missing
    plan = ev.plan(sql, [idx])
    if plan.uses_index(idx):
        info = ev.analyze(sql)
        assert try_covering_index(info, plan, 1.0) == MODE_NON_COVERING


def test_no_ipp_seq_scan_triggers_covering(db):
    """With no IPP columns at all, a heavy seq scan justifies covering."""
    ev = CostEvaluator(db)
    sql = "SELECT amount FROM orders WHERE amount > 990"
    plan = ev.plan(sql, [])
    info = ev.analyze(sql)
    assert try_covering_index(info, plan, 100.0) == MODE_COVERING


def test_covering_extension_lists_missing_referenced(db):
    ev = CostEvaluator(db)
    info = ev.analyze("SELECT name, score FROM users WHERE city = 'c1'")
    extension = covering_extension(info, "users", ["city"])
    assert extension == ["name", "score"]
    assert covering_extension(info, "users", ["city", "name", "score"]) == []
