"""Fleet / operational layer tests (Sec. VII, VIII)."""

from dataclasses import replace

import pytest

from repro.catalog import Index
from repro.core import AimConfig
from repro.engine import ExecutionMetrics
from repro.fleet import (
    ContinuousRegressionDetector,
    FleetCoordinator,
    MyShadow,
    PubSubChannel,
    ReplayConfig,
    ReplaySimulator,
    ReplicaSet,
    StatsExportDaemon,
    StatsWarehouse,
    incremental_index_events,
)
from repro.optimizer import CostEvaluator
from repro.workload import Workload, WorkloadMonitor, WorkloadQuery
from repro.workloads.production import PRODUCTS, build_product


@pytest.fixture(scope="module")
def product():
    return build_product(PRODUCTS["F"])


@pytest.fixture()
def replica_set(product):
    product.db.drop_all_secondary_indexes()
    return ReplicaSet(product.db, n_replicas=3)


def test_reads_round_robin(replica_set, product):
    query = next(q for q in product.workload if not q.is_dml)
    for _ in range(3):
        replica_set.serve_read(query)
    counts = [len(r.monitor.stats) for r in replica_set.replicas]
    assert counts == [1, 1, 1]


def test_writes_hit_every_replica(replica_set, product):
    write = next(q for q in product.workload if q.is_dml)
    replica_set.serve_write(write)
    assert all(len(r.monitor.stats) == 1 for r in replica_set.replicas)


def test_ddl_is_replicated(replica_set, product):
    table = next(iter(product.db.schema.tables))
    column = product.db.schema.table(table).column_names[1]
    replica_set.primary.db.create_index(Index(table, (column,)))
    for replica in replica_set.replicas:
        assert replica.db.schema.indexes(table)


def test_replicas_replan_without_a_flush(db):
    """Index DDL and new statistics on the primary's database reach every
    replica's cached plans with no call into the replica set."""
    replica_set = ReplicaSet(db, n_replicas=2)
    read = WorkloadQuery("SELECT amount FROM orders WHERE user_id = 7", 1.0)

    def served() -> list[float]:
        return [replica_set.serve_read(read) for _ in replica_set.replicas]

    def fresh() -> list[float]:
        cost = CostEvaluator(db, include_schema_indexes=True).cost(read.sql)
        return [cost] * len(replica_set.replicas)

    unindexed = served()
    db.create_index(Index("orders", ("user_id",)))
    indexed = served()
    assert indexed == fresh()
    assert indexed[0] < unindexed[0]
    orders = db.stats.table("orders")
    db.set_stats("orders", replace(orders, row_count=orders.row_count * 10))
    rescaled = served()
    assert rescaled == fresh()
    assert rescaled[0] > indexed[0]


def test_replicas_follow_settings_changed_on_the_primary(db):
    """Cost parameters and optimizer switches set on the primary's
    database reach every replica, not only replica 0."""
    db.create_index(Index("orders", ("user_id",)))
    db.create_index(Index("users", ("city", "age")))
    replica_set = ReplicaSet(db, n_replicas=2)
    reads = [
        WorkloadQuery("SELECT amount FROM orders WHERE user_id = 7", 1.0),
        WorkloadQuery("SELECT name FROM users WHERE age = 30", 1.0),
    ]

    def served() -> list[list[float]]:
        return [[replica_set.serve_read(q) for _ in replica_set.replicas] for q in reads]

    def fresh() -> list[list[float]]:
        evaluator = CostEvaluator(db, include_schema_indexes=True)
        return [[evaluator.cost(q.sql)] * len(replica_set.replicas) for q in reads]

    before = served()
    db.switches = replace(db.switches, skip_scan=True)
    skipping = served()
    assert skipping == fresh()
    assert skipping[1][0] < before[1][0]
    db.params = replace(db.params, random_page_cost=9.0)
    repriced = served()
    assert repriced == fresh()
    assert repriced[0][0] > skipping[0][0]


def test_stats_export_aggregates_and_clears(replica_set, product):
    channel = PubSubChannel()
    warehouse = StatsWarehouse()
    channel.subscribe(warehouse.ingest)
    daemon = StatsExportDaemon("F", replica_set, channel)
    query = next(q for q in product.workload if not q.is_dml)
    for _ in range(6):
        replica_set.serve_read(query)
    exported = daemon.run_once()
    assert exported == 3            # one record per replica
    assert channel.published == 3
    merged = warehouse.monitor_for("F")
    assert next(iter(merged.stats.values())).executions == 6
    # Replica monitors reset after export.
    assert all(not r.monitor.stats for r in replica_set.replicas)


def test_coordinator_triggers_tuning(replica_set, product):
    channel = PubSubChannel()
    warehouse = StatsWarehouse()
    channel.subscribe(warehouse.ingest)
    daemon = StatsExportDaemon("F", replica_set, channel)
    from repro.workloads.oltp import WorkloadSampler

    sampler = WorkloadSampler(product.workload, seed=1)
    for query in sampler.sample(300):
        replica_set.serve(query)
    daemon.run_once()
    coordinator = FleetCoordinator(warehouse, budget_bytes=1 << 30)
    coordinator.register("F", replica_set)
    assert coordinator.needs_tuning("F")
    results = coordinator.scan_and_tune()
    assert results["F"].created
    assert product.db.schema.indexes()


def test_coordinator_skips_quiet_databases(product):
    warehouse = StatsWarehouse()
    coordinator = FleetCoordinator(warehouse, budget_bytes=1 << 30)
    rs = ReplicaSet(product.db, n_replicas=1)
    coordinator.register("quiet", rs)
    assert not coordinator.needs_tuning("quiet")
    assert coordinator.scan_and_tune() == {}


def test_myshadow_flags_regressions(db):
    shadow = MyShadow(db)
    w = Workload.from_sql(
        [("SELECT amount FROM orders WHERE created < 10000", 5.0)]
    )
    good = [Index("orders", ("created",), dataless=True)]
    report = shadow.validate(w, good)
    assert report.safe
    assert report.improved
    assert report.cost_after < report.cost_before


def test_myshadow_follows_changes_on_its_source(db):
    """Validation plans with the source's current settings and indexes,
    whenever they changed."""
    sql = "SELECT amount FROM orders WHERE user_id = 7"
    w = Workload.from_sql([(sql, 1.0)])
    candidate = Index("orders", ("user_id",), dataless=True)
    shadow = MyShadow(db)
    assert shadow.validate(w, [candidate]).cost_after == 16.2421875

    params = db.params
    db.params = replace(params, random_page_cost=9.0)
    report = shadow.validate(w, [candidate])
    assert report.cost_after == CostEvaluator(db).cost(sql, [candidate])
    assert report.cost_after == 64.2578125

    db.params = params
    db.create_index(candidate.materialized())
    report = shadow.validate(w, [])
    live = CostEvaluator(db, include_schema_indexes=True)
    assert report.cost_before == live.cost(sql) == 16.2421875


def test_myshadow_sampling(db):
    shadow = MyShadow(db, sample_fraction=0.5, seed=1)
    w = Workload.from_sql([(f"SELECT name FROM users WHERE id = {i}", 1.0) for i in range(10)])
    assert len(shadow.sample_traffic(w)) == 5


def test_regression_detector_windows():
    detector = ContinuousRegressionDetector(regression_threshold=1.5)
    added = Index("orders", ("status",))
    detector.note_index_created(added)

    baseline = WorkloadMonitor()
    baseline.record_execution(
        "SELECT amount FROM orders WHERE status = 'a'",
        ExecutionMetrics(rows_read=10, rows_sent=10), 1.0,
    )
    assert detector.observe_window(baseline) == []

    regressed = WorkloadMonitor()
    regressed.record_execution(
        "SELECT amount FROM orders WHERE status = 'a'",
        ExecutionMetrics(rows_read=10, rows_sent=10), 5.0,
    )
    events = detector.observe_window(regressed)
    assert len(events) == 1
    assert events[0].ratio == pytest.approx(5.0)
    assert added in detector.flagged_for_removal(events)


def test_regression_detector_ages_suspects_out():
    detector = ContinuousRegressionDetector(suspect_windows=2)
    detector.note_index_created(Index("t", ("a",)))
    monitor = WorkloadMonitor()
    monitor.record_execution(
        "SELECT a FROM orders WHERE status = 'x'",
        ExecutionMetrics(rows_read=1, rows_sent=1), 1.0,
    )
    detector.observe_window(monitor)   # window 1: suspect survives
    assert detector._recent_ddl
    detector.observe_window(monitor)   # window 2: suspect ages out
    assert detector._recent_ddl == {}


def test_replay_cpu_drops_as_indexes_build(product):
    product.db.drop_all_secondary_indexes()
    from repro.baselines import AimAlgorithm

    recommendation = AimAlgorithm(product.db).select(product.workload, 1 << 30)
    sim = ReplaySimulator(
        product.db, product.workload,
        ReplayConfig(ticks=24, arrivals_per_tick=30, capacity=2e6, seed=3),
    )
    events = incremental_index_events(recommendation.indexes[:6], start_tick=8, interval=2)
    timeline = sim.run(events)
    before = timeline.mean_cpu(0, 8)
    after = timeline.mean_cpu(20, 24)
    assert after < before
    assert timeline.points[0].n_indexes == 0
    assert timeline.points[-1].n_indexes == 6


def test_replay_sees_ddl_made_on_its_database(product):
    """Indexes built straight through ``sim.db`` lower the offered cost
    exactly as ``sim.create_indexes`` does."""
    from repro.baselines import AimAlgorithm

    product.db.drop_all_secondary_indexes()
    indexes = AimAlgorithm(product.db).select(product.workload, 1 << 30).indexes
    config = ReplayConfig(ticks=6, arrivals_per_tick=30, capacity=2e6, seed=3)

    def offered(event) -> list[float]:
        product.db.drop_all_secondary_indexes()
        sim = ReplaySimulator(product.db, product.workload, config)
        return [p.offered_cost for p in sim.run({3: event}).points]

    def build_directly(sim):
        for index in indexes:
            sim.db.create_index(index.materialized())

    direct = offered(build_directly)
    assert direct == offered(lambda sim: sim.create_indexes(indexes))
    assert max(direct[3:]) < min(direct[:3])


def test_replay_saturation_clips_throughput(product):
    product.db.drop_all_secondary_indexes()
    sim = ReplaySimulator(
        product.db, product.workload,
        ReplayConfig(ticks=5, arrivals_per_tick=50, capacity=1.0, seed=3),
    )
    timeline = sim.run()
    assert all(p.cpu_pct == 100.0 for p in timeline.points)
    assert all(p.throughput < 50 for p in timeline.points)
