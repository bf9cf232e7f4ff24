"""Optimizer switch tests (paper Sec. VIII-a)."""

import pytest

from repro.catalog import Column, INT, Index, Table, varchar
from repro.core import AimAdvisor, CandidateGenerator, MODE_NON_COVERING
from repro.engine import Database
from repro.executor import Executor
from repro.optimizer import CostEvaluator, Optimizer, OptimizerSwitches, analyze_query
from repro.optimizer.optimizer import locator_select
from repro.sqlparser import parse
from repro.stats import StatsCatalog, SyntheticColumn, synthesize_table
from repro.workload import Workload


@pytest.fixture()
def skip_db():
    """A table where (gender, score) exists but queries filter score only."""
    table = Table(
        "people",
        [Column("id", INT), Column("gender", varchar(1)),
         Column("score", INT), Column("name", varchar(20))],
        ("id",),
    )
    db = Database.from_tables([table], with_storage=False)
    db.set_stats("people", synthesize_table(1_000_000, {
        "id": SyntheticColumn(ndv=-1, lo=1, hi=1_000_000),
        "gender": SyntheticColumn(ndv=2),
        "score": SyntheticColumn(ndv=500_000, lo=0, hi=1_000_000),
        "name": SyntheticColumn(ndv=-1),
    }))
    db.create_index(Index("people", ("gender", "score")))
    return db


SQL = "SELECT score FROM people WHERE score = 123456"


def test_skip_scan_off_by_default(skip_db):
    plan = Optimizer(skip_db).explain(SQL)
    assert plan.steps[0].path.method == "seq"


def test_skip_scan_enables_index_use(skip_db):
    skip_db.switches = OptimizerSwitches(skip_scan=True)
    plan = Optimizer(skip_db).explain(SQL)
    path = plan.steps[0].path
    assert path.method == "index"
    assert path.skip_scan
    assert not path.order_satisfied


def test_skip_scan_respects_ndv_cap(skip_db):
    skip_db.switches = OptimizerSwitches(skip_scan=True, skip_scan_max_ndv=1)
    plan = Optimizer(skip_db).explain(SQL)
    assert plan.steps[0].path.method == "seq"


def test_skip_scan_cost_scales_with_groups(skip_db):
    skip_db.switches = OptimizerSwitches(skip_scan=True)
    with_two = Optimizer(skip_db).explain(SQL).total_cost
    # Re-synthesize with a higher-NDV leading column: more subranges.
    skip_db.set_stats("people", synthesize_table(1_000_000, {
        "id": SyntheticColumn(ndv=-1, lo=1, hi=1_000_000),
        "gender": SyntheticColumn(ndv=150),
        "score": SyntheticColumn(ndv=500_000, lo=0, hi=1_000_000),
        "name": SyntheticColumn(ndv=-1),
    }))
    with_many = Optimizer(skip_db).explain(SQL).total_cost
    assert with_many > with_two


def test_icp_switch_increases_lookups_when_off(db):
    idx = Index("orders", ("user_id", "status", "amount"), dataless=True)
    ev_on = CostEvaluator(db)
    sql = "SELECT created FROM orders WHERE user_id = 5 AND amount < 100"
    plan_on = ev_on.plan(sql, [idx])
    db.switches = OptimizerSwitches(index_condition_pushdown=False)
    ev_off = CostEvaluator(db)
    plan_off = ev_off.plan(sql, [idx])
    if plan_on.uses_index(idx) and plan_off.uses_index(idx):
        on_path = next(s.path for s in plan_on.steps if s.path.index is not None)
        off_path = next(s.path for s in plan_off.steps if s.path.index is not None)
        assert off_path.lookup_rows >= on_path.lookup_rows


def test_hash_join_switch_forces_nlj(db):
    sql = (
        "SELECT u.name, o.amount FROM users u, orders o "
        "WHERE u.id = o.user_id"
    )
    db.switches = OptimizerSwitches(hash_join=False)
    plan = Optimizer(db).explain(sql)
    assert all(step.join_method != "hash" for step in plan.steps)


def test_skip_scan_execution_correct(indexed_db):
    """Skip-scan plans return exactly the same rows as seq scans."""
    indexed_db.switches = OptimizerSwitches(skip_scan=True, skip_scan_max_ndv=5000)
    executor = Executor(indexed_db)
    # user_id has ~500 NDV; (user_id, status) index, filter on status only.
    result = executor.execute("SELECT COUNT(*) FROM orders WHERE status = 'paid'")
    brute = sum(
        1 for row in indexed_db.storage["orders"].rows.values()
        if row["status"] == "paid"
    )
    assert result.rows[0][0] == brute


def test_candidate_generation_switch_awareness(skip_db):
    """With skip scan ON, a candidate equal to another minus its low-NDV
    leading column is pruned (Sec. VIII-a: fewer candidates)."""
    from repro.core import MODE_COVERING

    # Query a produces the (gender, score) ordering (IPP before ORDER BY);
    # query b's (score) candidate is skip-servable by it.
    queries = [
        ("a", "SELECT score FROM people WHERE gender = 'f' "
              "ORDER BY score LIMIT 5", MODE_COVERING),
        ("b", "SELECT id FROM people WHERE score = 7", MODE_NON_COVERING),
    ]

    def generate(switches):
        gen = CandidateGenerator(
            skip_db.schema, skip_db.stats, switches=switches
        )
        return gen.generate([
            (key, analyze_query(parse(sql), skip_db.schema), mode)
            for key, sql, mode in queries
        ])

    plain = generate(OptimizerSwitches(skip_scan=False))
    aware = generate(OptimizerSwitches(skip_scan=True))
    assert len(aware.indexes) < len(plain.indexes)
    # The pruned narrow index's query is still attributed to the wider one.
    assert all(aware.attribution[key] for key, _sql, _mode in queries)


def test_advisor_with_skip_scan_still_improves(skip_db):
    skip_db.switches = OptimizerSwitches(skip_scan=True)
    w = Workload.from_sql([(SQL, 10.0)])
    rec = AimAdvisor(skip_db).recommend(w, 1 << 30)
    assert rec.cost_after <= rec.cost_before


def test_dml_locate_step_plans_under_the_database_switches(db):
    """An UPDATE's locate step is planned under the database's switches,
    as the executor plans the locator SELECT it runs: with skip scan on,
    the (city, age) index locates ``age = 30`` for 48.12 instead of a
    58.2 seq scan."""
    db.create_index(Index("users", ("city", "age")))
    db.switches = OptimizerSwitches(skip_scan=True)
    optimizer = Optimizer(db)
    update = parse("UPDATE users SET score = 1 WHERE age = 30")
    plan = optimizer.explain(update)
    locate = optimizer.explain(locator_select(update))
    assert locate.steps[0].path.skip_scan
    assert round(locate.total_cost, 2) == 48.12
    assert [step.path for step in plan.steps] == [step.path for step in locate.steps]
    assert round(plan.total_cost, 2) == 84.12   # 94.2 with a seq locate
