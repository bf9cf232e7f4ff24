"""Discrete-time workload replay: CPU% and throughput time series.

Reproduces the measurement harness behind Fig 3 and Fig 6: a machine with
fixed processing capacity serves a statement stream; the y-axes are CPU
utilization (offered load over capacity) and completed statements per
tick (capacity-clipped).  Index DDL is injected as timeline events --
including the paper's "indexes were created incrementally with sleeps in
between in order to clearly observe the impact".

Per-statement costs come from the optimizer under the *current* index
configuration, through one what-if evaluator whose plan cache holds while
:attr:`~repro.engine.Database.plan_version` does: re-planning happens
exactly when the configuration changes -- however the DDL reaches
``sim.db`` -- which is also how the estimated series responds to each
index build.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from ..catalog import Index
from ..engine import Database
from ..optimizer import CostEvaluator
from ..workload import Workload, WorkloadQuery
from ..workloads.oltp import WorkloadSampler


@dataclass(frozen=True)
class ReplayConfig:
    """Replay parameters.

    Attributes:
        ticks: number of simulation steps.
        arrivals_per_tick: statements offered per tick.
        capacity: cost units the machine can process per tick (100% CPU).
        seed: sampler seed.
    """

    ticks: int = 120
    arrivals_per_tick: int = 60
    capacity: float = 50_000.0
    seed: int = 0


@dataclass
class TimelinePoint:
    tick: int
    cpu_pct: float
    throughput: float
    offered_cost: float
    n_indexes: int


@dataclass
class Timeline:
    """A recorded replay run."""

    points: list[TimelinePoint] = field(default_factory=list)

    def cpu_series(self) -> list[float]:
        return [p.cpu_pct for p in self.points]

    def throughput_series(self) -> list[float]:
        return [p.throughput for p in self.points]

    def mean_cpu(self, start: int = 0, end: Optional[int] = None) -> float:
        window = self.points[start:end]
        return sum(p.cpu_pct for p in window) / max(1, len(window))

    def mean_throughput(self, start: int = 0, end: Optional[int] = None) -> float:
        window = self.points[start:end]
        return sum(p.throughput for p in window) / max(1, len(window))


Event = Callable[["ReplaySimulator"], None]


class ReplaySimulator:
    """Drives one machine through the replay."""

    def __init__(self, db: Database, workload: Workload, config: ReplayConfig):
        self.db = db
        self.workload = workload
        self.config = config
        self.sampler = WorkloadSampler(workload, seed=config.seed)
        self._evaluator = CostEvaluator(db, include_schema_indexes=True)
        self.timeline = Timeline()

    # -- configuration events --------------------------------------------------

    def create_indexes(self, indexes: Iterable[Index]) -> None:
        for index in indexes:
            self.db.create_index(index.materialized())

    def drop_all_indexes(self) -> None:
        self.db.drop_all_secondary_indexes()

    # -- execution ------------------------------------------------------------------

    def statement_cost(self, query: WorkloadQuery) -> float:
        return self._evaluator.cost(query.sql)

    def run(self, events: Optional[dict[int, Event]] = None) -> Timeline:
        """Run the full replay; *events* maps tick -> callback."""
        events = events or {}
        for tick in range(self.config.ticks):
            if tick in events:
                events[tick](self)
            arrivals = self.sampler.sample(self.config.arrivals_per_tick)
            offered = sum(self.statement_cost(q) for q in arrivals)
            utilization = offered / self.config.capacity
            cpu_pct = min(100.0, utilization * 100.0)
            if utilization <= 1.0:
                throughput = float(len(arrivals))
            else:
                throughput = len(arrivals) / utilization
            self.timeline.points.append(
                TimelinePoint(
                    tick=tick,
                    cpu_pct=cpu_pct,
                    throughput=throughput,
                    offered_cost=offered,
                    n_indexes=len(self.db.schema.indexes()),
                )
            )
        return self.timeline


def incremental_index_events(
    indexes: list[Index],
    start_tick: int,
    interval: int,
) -> dict[int, Event]:
    """DDL events creating one index every *interval* ticks from
    *start_tick* (the paper's incremental creation with sleeps)."""
    events: dict[int, Event] = {}
    for i, index in enumerate(indexes):
        tick = start_tick + i * interval

        def make_event(idx: Index) -> Event:
            return lambda sim: sim.create_indexes([idx])

        events[tick] = _chain(events.get(tick), make_event(index))
    return events


def _chain(first: Optional[Event], second: Event) -> Event:
    if first is None:
        return second

    def chained(sim: "ReplaySimulator") -> None:
        first(sim)
        second(sim)

    return chained
