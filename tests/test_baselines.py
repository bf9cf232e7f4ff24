"""Baseline algorithm tests: every algorithm behaves as a valid advisor."""

import sys

import pytest

from repro.baselines import (
    ALL_ALGORITHMS,
    AimAlgorithm,
    Db2AdvisAlgorithm,
    DexterAlgorithm,
    DropAlgorithm,
    DtaAlgorithm,
    ExtendAlgorithm,
    NoIndexAlgorithm,
    RelaxationAlgorithm,
    indexable_columns,
    per_query_candidates,
    single_column_candidates,
)
from repro.catalog import Index
from repro.optimizer import CostEvaluator
from repro.workload import Workload

BUDGET = 20 << 20


def workload():
    return Workload.from_sql([
        ("SELECT amount FROM orders WHERE created < 10000", 50.0),
        ("SELECT name FROM users WHERE city = 'c3' AND age > 75", 30.0),
        ("SELECT u.name, o.amount FROM users u, orders o "
         "WHERE u.id = o.user_id AND o.status = 'paid' AND u.city = 'c1'", 20.0),
        ("SELECT status, COUNT(*) FROM orders GROUP BY status", 5.0),
    ])


#: Budgets every selector is checked at: nothing fits, a few indexes fit,
#: everything fits.
BUDGETS = (1, 200_000, BUDGET)


@pytest.mark.parametrize("name,budget", [
    # The ample-budget case keeps the bare algorithm name as its id.
    pytest.param(name, budget, id=name if budget == BUDGET else f"{name}-{budget}")
    for name in sorted(ALL_ALGORITHMS) for budget in BUDGETS
])
def test_algorithm_contract(db, name, budget):
    """Budget respected, cost never worse than baseline, bookkeeping sane."""
    algo = ALL_ALGORITHMS[name](db)
    result = algo.select(workload(), budget)
    assert result.algorithm == name
    assert result.total_size_bytes <= budget
    assert result.cost_after <= result.cost_before + 1e-6
    assert result.runtime_seconds >= 0
    assert 0 < result.relative_cost <= 1.0 + 1e-9
    for idx in result.indexes:
        assert db.schema.table(idx.table)   # valid tables
        assert idx.width >= 1


def _key(spec: str) -> tuple:
    """``"orders(status,user_id)"`` -> the :attr:`Index.key` it names."""
    table, columns = spec.rstrip(")").split("(")
    return (table, tuple(columns.split(",")), False)


#: (selector, budget) -> (recommended index keys, optimizer calls) on
#: ``workload()``.  A refactor of the selection loops must keep them.
PINNED = {
    ("autoadmin", 1): ([], 12),
    ("cophy", 1): ([], 12),
    ("db2advis", 1): ([], 8),
    ("dexter", 1): ([], 8),
    ("drop", 1): ([], 11),
    ("dta", 1): ([], 15),
    ("extend", 1): ([], 4),
    ("relaxation", 1): ([], 22),
    ("autoadmin", 200_000): (["orders(created)", "orders(status,user_id)"], 14),
    ("cophy", 200_000): (["orders(created)", "orders(status)", "users(city,age)"], 13),
    ("db2advis", 200_000): (["orders(created)", "orders(status)", "users(city,age)"], 9),
    ("dexter", 200_000): (["orders(created)", "orders(status)", "users(city,age)"], 9),
    ("drop", 200_000): (["orders(created)", "orders(status,user_id)"], 11),
    ("dta", 200_000): (["orders(created)", "orders(status,user_id)"], 19),
    ("extend", 200_000): (["orders(created,amount)", "orders(status)"], 24),
    ("relaxation", 200_000): (["orders(created)", "users(city,age)"], 22),
}
_FOUR = ["orders(created)", "orders(status)", "orders(status,user_id)", "users(city,age)"]
PINNED.update({
    ("autoadmin", BUDGET): (_FOUR, 18),
    ("cophy", BUDGET): (_FOUR, 14),
    ("db2advis", BUDGET): (_FOUR, 10),
    ("dexter", BUDGET): (_FOUR, 10),
    ("drop", BUDGET): (_FOUR, 11),
    ("dta", BUDGET): (_FOUR, 32),
    ("extend", BUDGET): (
        ["orders(created,amount)", "orders(status)", "orders(status,user_id,amount)"], 75
    ),
    ("relaxation", BUDGET): (_FOUR, 18),
})


@pytest.mark.parametrize("name,budget,lp", [
    pytest.param(name, budget, True, id=f"{name}-{budget}")
    for name, budget in sorted(PINNED)
] + [
    # CoPhy without an LP solver: the greedy rounding must land on the same
    # recommendations and optimizer calls.
    pytest.param("cophy", budget, False, id=f"cophy-{budget}-no-scipy")
    for budget in BUDGETS
])
def test_pinned_outputs(db, monkeypatch, name, budget, lp):
    """Each baseline's recommendation and optimizer-call count are fixed."""
    if not lp:
        monkeypatch.setitem(sys.modules, "scipy.optimize", None)
    keys, calls = PINNED[(name, budget)]
    result = ALL_ALGORITHMS[name](db).select(workload(), budget)
    assert sorted(idx.key for idx in result.indexes) == sorted(map(_key, keys))
    assert result.optimizer_calls == calls


def test_cophy_lp_solves_product_a(monkeypatch):
    """Product A's 643 x 853 LP at 20 MiB has a solution.  Gains up to
    ~1e10 and index sizes up to ~1e9 as raw coefficients make HiGHS stop
    with a solve error, and CoPhy then falls back to greedy rounding."""
    pytest.importorskip("scipy.optimize")
    from repro.baselines.cophy import CophyAlgorithm
    from repro.workloads.production import PRODUCTS, build_product

    solved = []
    solve_lp = CophyAlgorithm._solve_lp

    def spy(*args):
        fractional = solve_lp(*args)
        solved.append(fractional is not None)
        return fractional

    monkeypatch.setattr(CophyAlgorithm, "_solve_lp", staticmethod(spy))
    product = build_product(PRODUCTS["A"])
    CophyAlgorithm(product.db).select(product.workload, BUDGET)
    assert solved == [True]


@pytest.mark.parametrize(
    "name", ["aim", "extend", "dta", "autoadmin", "db2advis", "drop",
             "relaxation", "dexter", "cophy"]
)
def test_algorithms_find_the_obvious_index(db, name):
    """A single 1%-selective range query: everyone should improve it."""
    w = Workload.from_sql(
        [("SELECT amount FROM orders WHERE created < 10000", 10.0)]
    )
    result = ALL_ALGORITHMS[name](db).select(w, BUDGET)
    assert result.relative_cost < 0.9
    assert any("created" in idx.columns for idx in result.indexes)


def test_noindex_returns_nothing(db):
    result = NoIndexAlgorithm(db).select(workload(), BUDGET)
    assert result.indexes == []
    assert result.relative_cost == pytest.approx(1.0)


def test_aim_uses_fewest_optimizer_calls(db):
    w = workload()
    aim = AimAlgorithm(db).select(w, BUDGET)
    extend = ExtendAlgorithm(db).select(w, BUDGET)
    drop = DropAlgorithm(db).select(w, BUDGET)
    assert aim.optimizer_calls < extend.optimizer_calls
    assert aim.optimizer_calls < drop.optimizer_calls


def test_indexable_columns_ordering(db):
    ev = CostEvaluator(db)
    info = ev.analyze(
        "SELECT name FROM users WHERE city = 'c1' AND age > 5 ORDER BY score"
    )
    cols = indexable_columns(info)["users"]
    # Equality first, then range, then order-by.
    assert cols.index("city") < cols.index("age") < cols.index("score")


def test_single_column_candidates_deduplicated(db):
    ev = CostEvaluator(db)
    w = Workload.from_sql([
        ("SELECT name FROM users WHERE city = 'c1'", 1.0),
        ("SELECT name FROM users WHERE city = 'c2'", 1.0),
    ])
    singles = single_column_candidates(ev, w)
    assert len([i for i in singles if i.columns == ("city",)]) == 1


def test_per_query_candidates_respect_width(db):
    ev = CostEvaluator(db)
    w = workload()
    per_query = per_query_candidates(ev, w, max_width=2)
    for candidates in per_query.values():
        assert all(c.width <= 2 for c in candidates)


def test_dexter_improvement_threshold(db):
    """A query an index barely helps is skipped at a high threshold."""
    w = Workload.from_sql(
        [("SELECT amount FROM orders WHERE created < 10000", 10.0)]
    )
    strict = DexterAlgorithm(db, min_improvement=0.999)
    assert strict.select(w, BUDGET).indexes == []
    lax = DexterAlgorithm(db, min_improvement=0.05)
    assert lax.select(w, BUDGET).indexes


def test_extend_widens_indexes(db):
    """Extend grows (created) into a covering (created, amount) index."""
    w = Workload.from_sql(
        [("SELECT amount FROM orders WHERE created < 10000", 10.0)]
    )
    result = ExtendAlgorithm(db, max_width=3).select(w, BUDGET)
    assert any(idx.width >= 2 and "created" in idx.columns for idx in result.indexes)


def test_extend_greedy_blindness(db):
    """The paper's Sec. VI-C criticism: when no single column pays off on
    its own, Extend never reaches the good wide index -- here the covering
    (city, age, name) index that AIM finds via query structure."""
    w = Workload.from_sql(
        [("SELECT name FROM users WHERE city = 'c3' AND age > 75", 10.0)]
    )
    extend = ExtendAlgorithm(db, max_width=3).select(w, BUDGET)
    aim = AimAlgorithm(db).select(w, BUDGET)
    assert aim.cost_after <= extend.cost_after


@pytest.mark.parametrize("algo", [DtaAlgorithm, ExtendAlgorithm], ids=["dta", "extend"])
def test_time_limit_caps_runtime(db, algo):
    fast = algo(db, time_limit_seconds=0.0)
    result = fast.select(workload(), BUDGET)
    # With no time at all, the greedy search cannot add anything.
    assert result.indexes == []
    assert result.runtime_seconds < 5.0


def _colliding_db():
    """Two tables whose single-column indexes share a formatted name:
    ``a_b(c)`` and ``a(b_c)`` are both ``idx_a_b_c``."""
    from repro.catalog import Column, INT, Table
    from repro.engine import Database

    db = Database.from_tables([
        Table("a_b", [Column("id", INT), Column("c", INT), Column("v", INT)], ("id",)),
        Table("a", [Column("id", INT), Column("b_c", INT), Column("v", INT)], ("id",)),
    ])
    db.load_rows("a_b", [{"id": i, "c": i % 500, "v": i} for i in range(2000)])
    db.load_rows("a", [{"id": i, "b_c": i % 700, "v": i} for i in range(3000)])
    db.analyze()
    return db


def test_greedy_membership_is_keyed_not_named():
    db = _colliding_db()
    w = Workload.from_sql([
        ("SELECT v FROM a_b WHERE c = 7", 10.0),
        ("SELECT v FROM a WHERE b_c = 7", 10.0),
    ])
    pair = {("a_b", ("c",), False), ("a", ("b_c",), False)}
    assert len({Index(t, c).name for t, c, _u in pair}) == 1
    # Ample budget: Extend adds both colliding indexes.
    extend = ExtendAlgorithm(db, max_width=1).select(w, BUDGET)
    assert {idx.key for idx in extend.indexes} == pair
    # Room for one: Drop and Relaxation drop one index, not both.
    one = max(db.index_size_bytes(Index(t, c)) for t, c, _u in pair)
    for algo in (DropAlgorithm(db, max_width=1), RelaxationAlgorithm(db, max_width=1)):
        result = algo.select(w, one)
        assert len(result.indexes) == 1, algo.name
        assert {idx.key for idx in result.indexes} <= pair


def test_db2advis_credits_used_indexes_by_key():
    """The plan reads only ``a_b(c)``; ``a(b_c)``, which shares its name,
    earns no benefit and is not recommended."""
    db = _colliding_db()
    w = Workload.from_sql(
        [("SELECT a.v FROM a_b, a WHERE a_b.c < 400 AND a.b_c = a_b.c", 10.0)]
    )
    result = Db2AdvisAlgorithm(db, max_width=1).select(w, BUDGET)
    assert {idx.key for idx in result.indexes} == {("a_b", ("c",), False)}
