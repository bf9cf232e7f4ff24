"""Continuous tuning scenario (paper Sec. VI-D).

A tuned database receives a "new code push" with an unindexed hot query.
The monitor notices, the periodic tuning cycle repairs it, and the
regression detector guards the change.

Run:  python examples/continuous_tuning.py
"""

from __future__ import annotations

import random

from repro.catalog import Column, INT, Table, varchar
from repro.core import AimConfig, ContinuousTuner
from repro.engine import Database
from repro.workload import MonitoredExecutor, SelectionPolicy


def build_database() -> Database:
    events = Table(
        "events",
        [
            Column("id", INT),
            Column("kind", varchar(12)),
            Column("user_id", INT),
            Column("score", INT),
            Column("ts", INT),
        ],
        ("id",),
    )
    db = Database.from_tables([events], name="analytics")
    rng = random.Random(9)
    db.load_rows("events", (
        {
            "id": i,
            "kind": f"k{rng.randint(0, 19)}",
            "user_id": rng.randrange(2_000),
            "score": rng.randint(0, 1_000),
            "ts": rng.randint(0, 10**6),
        }
        for i in range(25_000)
    ))
    db.analyze()
    return db


def main() -> None:
    db = build_database()
    monitored = MonitoredExecutor(db)
    tuner = ContinuousTuner(
        db,
        budget_bytes=64 << 20,
        config=AimConfig(),
        monitor=monitored.monitor,
        selection=SelectionPolicy(min_executions=3, min_benefit=0.001),
    )

    print("== interval 1: steady-state workload ==")
    for i in range(20):
        monitored.execute(f"SELECT score FROM events WHERE ts < {10_000 + i}")
    result = tuner.run_cycle()
    print(f"cycle 1 created: {[i.name for i in result.created]}")

    print("\n== interval 2: new code push (unindexed hot query) ==")
    monitored.monitor.clear()
    for i in range(30):
        monitored.execute(
            f"SELECT user_id, score FROM events WHERE kind = 'k{i % 3}' "
            f"AND score > 900"
        )
    result = tuner.run_cycle()
    print(f"cycle 2 created: {[i.name for i in result.created]}")
    print(f"cycle 2 dropped: {[i.name for i in result.dropped]}")

    print("\n== verifying the new query now uses an index ==")
    check = monitored.execute(
        "SELECT user_id, score FROM events WHERE kind = 'k1' AND score > 900"
    )
    used = [s.path.index.name for s in check.plan.steps if s.path.index]
    print(f"plan uses: {used or 'seq scan'}")
    print(f"rows read: {check.metrics.rows_read} (of 25,000)")


if __name__ == "__main__":
    main()
