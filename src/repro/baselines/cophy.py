"""CoPhy-style linear-programming advisor (Dash, Polyzotis, Ailamaki).

The declarative formulation: binary variables ``x_i`` (build index i) and
assignment variables ``z_{q,i}`` (query q is served by index i), with::

    maximize   sum w_q * benefit_{q,i} * z_{q,i}
    subject to z_{q,i} <= x_i,   sum_i z_{q,i} <= 1  (per query),
               sum_i size_i * x_i <= budget,   0 <= x, z <= 1.

We solve the LP relaxation with scipy's HiGHS solver and round ``x`` by
fractional value under the budget; per-query benefits are measured per
single index (CoPhy's pre-computed atomic configurations).  Without
scipy the algorithm degrades to greedy rounding of the same coefficients.
"""

from __future__ import annotations

from ..catalog import Index
from ..optimizer import CostEvaluator
from ..workload import Workload
from .base import SelectionAlgorithm, fill, query_gains
from .cost_eval import per_query_candidates

try:
    from scipy.optimize import linprog

    HAVE_SCIPY = True
except ImportError:   # pragma: no cover - scipy is installed in CI
    HAVE_SCIPY = False


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
        # Keyed by the structural index key (names can collide when
        # table/column names contain underscores).
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
        if HAVE_SCIPY:
            fractional = self._solve_lp(
                len(queries), index_names, sizes, benefits, budget_bytes
            )
        else:
            fractional = {name: 1.0 for name in index_names}

        total_gain = {
            name: sum(g for (_qi, n), g in benefits.items() if n == name)
            for name in index_names
        }
        ordered = sorted(
            index_names,
            key=lambda name: (fractional.get(name, 0.0), total_gain[name]),
            reverse=True,
        )
        picked = [pool[name] for name in ordered if fractional.get(name, 0.0) > 1e-6]
        return fill(self.db, picked, budget_bytes)

    @staticmethod
    def _solve_lp(n_queries, index_names, sizes, benefits, budget_bytes):
        n_idx = len(index_names)
        idx_pos = {name: i for i, name in enumerate(index_names)}
        z_keys = sorted(benefits)
        z_pos = {key: n_idx + i for i, key in enumerate(z_keys)}
        n_vars = n_idx + len(z_keys)

        c = [0.0] * n_vars
        for key, gain in benefits.items():
            c[z_pos[key]] = -gain   # linprog minimizes

        a_ub: list[list[float]] = []
        b_ub: list[float] = []
        for key in z_keys:   # z_{q,i} <= x_i
            row = [0.0] * n_vars
            row[z_pos[key]] = 1.0
            row[idx_pos[key[1]]] = -1.0
            a_ub.append(row)
            b_ub.append(0.0)
        for qi in range(n_queries):   # one index serves each query
            row = [0.0] * n_vars
            any_z = False
            for key in z_keys:
                if key[0] == qi:
                    row[z_pos[key]] = 1.0
                    any_z = True
            if any_z:
                a_ub.append(row)
                b_ub.append(1.0)
        budget_row = [0.0] * n_vars   # storage budget
        for name in index_names:
            budget_row[idx_pos[name]] = float(sizes[name])
        a_ub.append(budget_row)
        b_ub.append(float(budget_bytes))

        result = linprog(
            c, A_ub=a_ub, b_ub=b_ub, bounds=[(0.0, 1.0)] * n_vars,
            method="highs",
        )
        if not result.success:
            return {name: 1.0 for name in index_names}
        return {name: result.x[idx_pos[name]] for name in index_names}
