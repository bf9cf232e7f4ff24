"""Ranking (Eq. 7 / Eq. 8) and knapsack tests."""

import pytest

from repro.catalog import Index
from repro.core import (
    CandidateGenerator,
    MODE_NON_COVERING,
    knapsack_exact,
    knapsack_select,
    rank_candidates,
)
from repro.core.ranking import RankedCandidate
from repro.optimizer import CostEvaluator
from repro.workload import Workload


def build_candidates(db, workload):
    ev = CostEvaluator(db)
    gen = CandidateGenerator(db.schema, db.stats)
    queries = [
        (q.normalized_sql, ev.analyze(q.sql), MODE_NON_COVERING)
        for q in workload
        if not q.is_dml
    ]
    return ev, gen.generate(queries)


def test_useful_candidate_gets_positive_benefit(db):
    w = Workload.from_sql([("SELECT amount FROM orders WHERE created < 10000", 10.0)])
    ev, cs = build_candidates(db, w)
    ranked = rank_candidates(ev, db, w, cs)
    useful = [c for c in ranked if "created" in c.index.columns]
    assert useful and useful[0].benefit > 0
    assert useful[0].size_bytes > 0


def test_gain_scales_with_weight(db):
    sql = "SELECT amount FROM orders WHERE created < 10000"
    w1 = Workload.from_sql([(sql, 1.0)])
    w10 = Workload.from_sql([(sql, 10.0)])
    ev1, cs1 = build_candidates(db, w1)
    ev10, cs10 = build_candidates(db, w10)
    top1 = rank_candidates(ev1, db, w1, cs1)[0]
    top10 = rank_candidates(ev10, db, w10, cs10)[0]
    assert top10.benefit == pytest.approx(10 * top1.benefit, rel=0.01)


def test_dml_charges_maintenance(db):
    w = Workload.from_sql([
        ("SELECT amount FROM orders WHERE created < 10000", 5.0),
        ("INSERT INTO orders (oid, user_id, amount, status, created) "
         "VALUES (99999, 1, 2, 'new', 3)", 100.0),
    ])
    ev, cs = build_candidates(db, w)
    ranked = rank_candidates(ev, db, w, cs)
    orders_candidates = [c for c in ranked if c.index.table == "orders"]
    assert all(c.maintenance > 0 for c in orders_candidates)


def test_utility_is_benefit_minus_maintenance():
    c = RankedCandidate(index=Index("t", ("a",)), benefit=10.0, maintenance=3.0,
                        size_bytes=100)
    assert c.utility == pytest.approx(7.0)
    assert c.density == pytest.approx(0.07)


def test_knapsack_respects_budget():
    candidates = [
        RankedCandidate(Index("t", (f"c{i}",)), benefit=10.0 - i,
                        size_bytes=100)
        for i in range(5)
    ]
    chosen = knapsack_select(candidates, budget_bytes=250)
    assert len(chosen) == 2
    assert sum(c.size_bytes for c in chosen) <= 250


def test_knapsack_orders_by_density():
    dense = RankedCandidate(Index("t", ("a",)), benefit=10.0, size_bytes=10)
    sparse = RankedCandidate(Index("t", ("b",)), benefit=100.0, size_bytes=10_000)
    chosen = knapsack_select([sparse, dense], budget_bytes=50)
    assert [c.index.name for c in chosen] == ["idx_t_a"]


def test_knapsack_skips_non_positive_utility():
    bad = RankedCandidate(Index("t", ("a",)), benefit=1.0, maintenance=5.0,
                          size_bytes=10)
    assert knapsack_select([bad], budget_bytes=1000) == []


def test_knapsack_prunes_prefix_redundancy():
    wide = RankedCandidate(Index("t", ("a", "b")), benefit=50.0, size_bytes=20)
    narrow = RankedCandidate(Index("t", ("a",)), benefit=10.0, size_bytes=10)
    chosen = knapsack_select([wide, narrow], budget_bytes=100)
    assert [c.index.name for c in chosen] == ["idx_t_a_b"]
    both = knapsack_select([wide, narrow], budget_bytes=100, prune_prefixes=False)
    assert len(both) == 2


def test_knapsack_exact_beats_greedy_on_adversarial_instance():
    # Greedy-by-density picks the 60-byte item; exact packs the two 50s.
    a = RankedCandidate(Index("t", ("a",)), benefit=61.0, size_bytes=60)
    b = RankedCandidate(Index("t", ("b",)), benefit=50.0, size_bytes=50)
    c = RankedCandidate(Index("t", ("c",)), benefit=50.0, size_bytes=50)
    exact = knapsack_exact([a, b, c], budget_bytes=100, granularity=10)
    assert sum(x.benefit for x in exact) == pytest.approx(100.0)


def test_knapsack_exact_respects_budget():
    items = [
        RankedCandidate(Index("t", (f"c{i}",)), benefit=float(i + 1),
                        size_bytes=(i + 1) * 1000)
        for i in range(6)
    ]
    chosen = knapsack_exact(items, budget_bytes=5000, granularity=1000)
    assert sum(c.size_bytes for c in chosen) <= 5000
