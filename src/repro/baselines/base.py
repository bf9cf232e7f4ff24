"""Common interface for index selection algorithms.

Every algorithm -- AIM and the baselines from the Kossmann et al.
evaluation framework -- implements ``select(workload, budget)`` on top of
the same what-if :class:`~repro.optimizer.CostEvaluator`, so runtime and
optimizer-call comparisons (Fig 4b/4d) are apples to apples.

As in the Kossmann et al. framework, the greedy baselines differ only in
how they enumerate configurations: each supplies its candidates, a
``moves(config, used_bytes)`` generator of :class:`Move` steps and a
``score``, and :meth:`SelectionAlgorithm._greedy` runs the search.
"""

from __future__ import annotations

import math
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from ..catalog import Index
from ..engine import Database
from ..obs import trace
from ..optimizer import CostEvaluator, WorkloadCoster
from ..workload import Workload, WorkloadQuery
from .cost_eval import config_size


@dataclass
class AlgorithmResult:
    """Outcome of one algorithm run."""

    algorithm: str
    indexes: list[Index] = field(default_factory=list)
    runtime_seconds: float = 0.0
    optimizer_calls: int = 0
    cost_before: float = 0.0
    cost_after: float = 0.0
    total_size_bytes: int = 0

    @property
    def relative_cost(self) -> float:
        """Workload cost relative to the unindexed baseline (Fig 4a/4c)."""
        if self.cost_before <= 0:
            return 1.0
        return self.cost_after / self.cost_before


class Move(NamedTuple):
    """One greedy step: the configuration it leads to and its byte delta."""

    config: list[Index]
    delta_bytes: int


#: ``moves(config, used_bytes)``: the steps open from *config*.
Moves = Callable[[list[Index], int], Iterator[Move]]


class SelectionAlgorithm(ABC):
    """Base class: times the run and reports costs uniformly."""

    name = "base"

    def __init__(self, db: Database):
        self.db = db

    def select(
        self,
        workload: Workload,
        budget_bytes: int,
        evaluator: Optional[CostEvaluator] = None,
    ) -> AlgorithmResult:
        """Run the algorithm; returns the selected configuration and
        bookkeeping (wall-clock runtime, optimizer calls, costs).

        Pass *evaluator* to reuse one across runs (its plan caches then
        survive between invocations -- the repeated-tuning case).
        ``optimizer_calls`` always counts this run only.
        """
        if evaluator is None:
            evaluator = CostEvaluator(self.db, include_schema_indexes=False)
        calls_start = evaluator.optimizer_calls
        with trace("baseline.select", algorithm=self.name) as span:
            indexes = self._select(evaluator, workload, budget_bytes)
            span.set(
                optimizer_calls=evaluator.optimizer_calls - calls_start,
                indexes=len(indexes),
            )
        runtime = span.duration
        selection_calls = evaluator.optimizer_calls
        with trace("baseline.cost_eval", algorithm=self.name) as cost_span:
            cost_before = evaluator.workload_cost(workload.pairs(), [])
            cost_after = evaluator.workload_cost(workload.pairs(), indexes)
            cost_span.set(
                optimizer_calls=evaluator.optimizer_calls - selection_calls
            )
        run_calls = evaluator.optimizer_calls - calls_start
        return AlgorithmResult(
            algorithm=self.name,
            indexes=list(indexes),
            runtime_seconds=runtime,
            optimizer_calls=run_calls,
            cost_before=cost_before,
            cost_after=cost_after,
            total_size_bytes=sum(self.db.index_size_bytes(i) for i in indexes),
        )

    @abstractmethod
    def _select(
        self, evaluator: CostEvaluator, workload: Workload, budget_bytes: int
    ) -> list[Index]:
        """Algorithm-specific selection logic."""

    def _greedy(
        self,
        coster: WorkloadCoster,
        config: list[Index],
        moves: Moves,
        score: Callable[[float, float, Move, int], Optional[float]],
        deadline: float = math.inf,
    ) -> list[Index]:
        """Greedy search from *config*; returns the final configuration.

        Each step costs every move ``moves(config, used_bytes)`` yields
        and takes the one with the highest ``score(cost, current_cost,
        move, used_bytes)``; the first best wins ties, ``None`` rejects a
        move and ``math.inf`` takes it at once.  The search stops when no
        move is accepted.  *deadline* (a :func:`time.perf_counter` value)
        is checked before each step and after each costed move; a scan it
        interrupts still applies its best move.  *coster* must be based
        on *config*.
        """
        used_bytes = config_size(self.db, config)
        current_cost = coster.cost(config)
        while time.perf_counter() <= deadline:
            best: Optional[Move] = None
            for move in moves(config, used_bytes):
                cost = coster.cost(move.config)
                value = score(cost, current_cost, move, used_bytes)
                if value is not None and (best is None or value > best_value):
                    best, best_value, best_cost = move, value, cost
                    if value == math.inf:
                        break
                if time.perf_counter() > deadline:
                    break
            if best is None:
                break
            config = best.config
            used_bytes += best.delta_bytes
            coster.rebase(config)
            current_cost = best_cost
        return config

    def _additions(self, candidates: Iterable[Index], budget_bytes: int) -> Moves:
        """Moves adding one candidate that is not chosen yet and fits."""
        sized = [(c, self.db.index_size_bytes(c)) for c in candidates]

        def moves(config: list[Index], used_bytes: int) -> Iterator[Move]:
            chosen = {c.key for c in config}
            for candidate, size in sized:
                if candidate.key not in chosen and used_bytes + size <= budget_bytes:
                    yield Move(config + [candidate], size)

        return moves


def positive_gain(
    cost: float, current_cost: float, move: Move, used_bytes: int
) -> Optional[float]:
    """Score a move by its cost reduction; moves that do not help are rejected."""
    gain = current_cost - cost
    return gain if gain > 0 else None


def deadline_after(seconds: Optional[float]) -> float:
    """The :func:`time.perf_counter` value *seconds* from now (``None``: never)."""
    return math.inf if seconds is None else time.perf_counter() + seconds


def query_gains(
    evaluator: CostEvaluator,
    query: WorkloadQuery,
    candidates: Iterable[Index],
    deadline: float = math.inf,
) -> list[tuple[float, Index]]:
    """*query*'s positive single-index gains, largest first (stable).

    Costing stops at *deadline*; the gains found so far are returned.
    """
    base = evaluator.cost(query.sql, [])
    gains = []
    for candidate in candidates:
        if time.perf_counter() > deadline:
            break
        gain = base - evaluator.cost(query.sql, [candidate])
        if gain > 0:
            gains.append((gain, candidate))
    gains.sort(key=lambda t: -t[0])
    return gains


def fill(db: Database, candidates: Iterable[Index], budget_bytes: int) -> list[Index]:
    """Take *candidates* in order, each one that still fits the budget."""
    chosen: list[Index] = []
    used_bytes = 0
    for candidate in candidates:
        size = db.index_size_bytes(candidate)
        if used_bytes + size <= budget_bytes:
            chosen.append(candidate)
            used_bytes += size
    return chosen
