"""CoPhy-style linear-programming advisor (Dash, Polyzotis, Ailamaki).

The declarative formulation: binary variables ``x_i`` (build index i) and
assignment variables ``z_{q,i}`` (query q is served by index i), with::

    maximize   sum w_q * benefit_{q,i} * z_{q,i}
    subject to z_{q,i} <= x_i,   sum_i z_{q,i} <= 1  (per query),
               sum_i size_i * x_i <= budget,   0 <= x, z <= 1.

We solve the LP relaxation with scipy's HiGHS solver and round ``x`` by
fractional value under the budget; per-query benefits are measured per
single index (CoPhy's pre-computed atomic configurations).  scipy is
imported at the first LP solve, not with the package, so processes that
never run CoPhy never load it; the first solve pays that import.  Without
scipy, or when the solver finds no solution, every candidate keeps
fraction 1 and the rounding is greedy by total gain.
"""

from __future__ import annotations

from ..catalog import Index
from ..optimizer import CostEvaluator
from ..workload import Workload
from .base import SelectionAlgorithm, fill, query_gains
from .cost_eval import per_query_candidates


class CophyAlgorithm(SelectionAlgorithm):
    """LP relaxation + rounding over per-(query, index) benefits."""

    name = "cophy"

    def __init__(self, db, max_width: int = 2):
        super().__init__(db)
        self.max_width = max_width

    def _select(self, evaluator: CostEvaluator, workload: Workload, budget_bytes: int):
        queries = [q for q in workload if not q.is_dml]
        per_query = per_query_candidates(
            evaluator, workload, self.max_width, with_permutations=False
        )
        pool: dict[tuple, Index] = {}
        benefits: dict[tuple[int, tuple], float] = {}
        for qi, query in enumerate(queries):
            candidates = per_query.get(query.normalized_sql, [])
            for gain, candidate in query_gains(evaluator, query, candidates):
                pool[candidate.key] = candidate
                benefits[(qi, candidate.key)] = gain * query.weight
        if not pool:
            return []
        index_names = sorted(pool)
        sizes = {name: self.db.index_size_bytes(pool[name]) for name in index_names}
        fractional = self._solve_lp(index_names, sizes, benefits, budget_bytes)
        if fractional is None:   # no solver or no solution: keep every candidate
            fractional = {name: 1.0 for name in index_names}

        # Each index's gains in ``benefits`` order, so the sums match a
        # per-index scan of ``benefits`` bit for bit.
        gains: dict[tuple, list[float]] = {name: [] for name in index_names}
        for (_qi, name), gain in benefits.items():
            gains[name].append(gain)
        total_gain = {name: sum(gains[name]) for name in index_names}
        ordered = sorted(
            index_names,
            key=lambda name: (fractional.get(name, 0.0), total_gain[name]),
            reverse=True,
        )
        picked = [pool[name] for name in ordered if fractional.get(name, 0.0) > 1e-6]
        return fill(self.db, picked, budget_bytes)

    @staticmethod
    def _solve_lp(index_names, sizes, benefits, budget_bytes):
        """Fractional ``x_i`` per index, or ``None`` without an LP solution."""
        try:
            from scipy.optimize import linprog
            from scipy.sparse import coo_matrix
        except ImportError:
            return None
        n_idx = len(index_names)
        idx_pos = {name: i for i, name in enumerate(index_names)}
        z_keys = sorted(benefits)
        z_pos = {key: n_idx + i for i, key in enumerate(z_keys)}
        n_vars = n_idx + len(z_keys)

        # Gains in units of the largest one: raw costs up to ~1e10 leave
        # HiGHS with no solution (as do byte sizes in the budget row below).
        top = max(benefits.values()) or 1.0
        c = [0.0] * n_vars
        for key, gain in benefits.items():
            c[z_pos[key]] = -gain / top   # linprog minimizes

        # A_ub as (row, column, value) triplets: every row has a handful of
        # nonzeros out of n_vars columns.
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        b_ub: list[float] = []

        def add_row(entries, bound: float) -> None:
            for col, value in entries:
                rows.append(len(b_ub))
                cols.append(col)
                vals.append(value)
            b_ub.append(bound)

        for key in z_keys:   # z_{q,i} <= x_i
            add_row(((z_pos[key], 1.0), (idx_pos[key[1]], -1.0)), 0.0)
        by_query: dict[int, list[int]] = {}   # z_keys sort by query first
        for key in z_keys:
            by_query.setdefault(key[0], []).append(z_pos[key])
        for positions in by_query.values():   # one index serves each query
            add_row(((pos, 1.0) for pos in positions), 1.0)
        # Storage budget, in units of the budget (bound 1.0).  A zero size
        # stores no entry.
        scale = max(budget_bytes, 1)
        add_row(
            ((idx_pos[name], sizes[name] / scale)
             for name in index_names if sizes[name]),
            budget_bytes / scale,
        )
        a_ub = coo_matrix((vals, (rows, cols)), shape=(len(b_ub), n_vars))

        result = linprog(
            c, A_ub=a_ub, b_ub=b_ub, bounds=[(0.0, 1.0)] * n_vars,
            method="highs",
        )
        if not result.success:
            return None
        return {name: result.x[idx_pos[name]] for name in index_names}
