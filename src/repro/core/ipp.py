"""Predicate factorization and index-prefix-predicate classification.

Implements ``FactorizeIndexPredicates`` (paper Sec. IV-B1): the WHERE
clause is brought into disjunctive normal form and every DNF factor
yields one predicate group; each group later becomes (at least) one
candidate partial order.  Within a group, columns split into *index
prefix predicate* (IPP) columns -- operators ``=``, ``<=>``, ``IN``,
``IS NULL`` whose matching rows share a constant prefix (Sec. IV-B2) --
and range-scan columns (``<``, ``<=``, ``>``, ``>=``, ``BETWEEN``,
prefix-``LIKE``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..optimizer.query_info import QueryInfo
from ..sqlparser import ast
from ..sqlparser.predicates import AtomicPredicate, classify_atomic, to_dnf

#: Cap on DNF factors considered per binding (complex AND-OR chains).
MAX_FACTORS = 32


@dataclass
class PredicateGroup:
    """One DNF factor's predicates on one table binding.

    Attributes:
        binding: the table binding the group belongs to.
        ipp_columns: columns featuring in an index prefix predicate
            (includes join columns, which behave as equality predicates
            once the other side is bound).
        range_predicates: non-IPP sargable predicates, keyed by column.
    """

    binding: str
    ipp_columns: set[str] = field(default_factory=set)
    range_predicates: dict[str, list[AtomicPredicate]] = field(default_factory=dict)

    @property
    def range_columns(self) -> set[str]:
        return set(self.range_predicates)

    @property
    def columns(self) -> set[str]:
        return self.ipp_columns | self.range_columns

    def is_empty(self) -> bool:
        return not self.ipp_columns and not self.range_predicates


def is_ipp(pred: AtomicPredicate) -> bool:
    """Index prefix predicate test (Sec. IV-B2).

    LIKE is special-cased: only a constant-prefix pattern bounds a scan,
    and even then the matching rows do *not* share one constant full
    prefix -- so LIKE is never an IPP, at best a range predicate.
    """
    return pred.op in ("=", "<=>", "IN", "IS NULL")


def is_range(pred: AtomicPredicate) -> bool:
    if pred.op == "LIKE":
        from ..sqlparser.predicates import like_has_constant_prefix
        from ..optimizer.selectivity import constant_value

        assert isinstance(pred.expr, ast.Comparison)
        return like_has_constant_prefix(constant_value(pred.expr.right))
    return pred.op in ("<", "<=", ">", ">=", "BETWEEN")


def factorize_index_predicates(
    info: QueryInfo,
    binding: str,
    join_columns: Iterable[str] = (),
    max_factors: int = MAX_FACTORS,
) -> list[PredicateGroup]:
    """DNF-factorize the predicates on *binding* into predicate groups.

    Top-level conjunct atomics appear in every group; each complex (OR
    tree) conjunct local to the binding multiplies the group set by its
    disjuncts.  *join_columns* (the ``C_J`` of Algorithms 4/6/7) are added
    to every group as IPP columns.

    Always returns at least one group when any predicate or join column
    exists; returns an empty list otherwise.
    """
    base = [p for p in info.filters.get(binding, [])]
    factor_sets: list[list[AtomicPredicate]] = [list(base)]
    for touched, expr in info.complex_conjuncts:
        if touched != frozenset({binding}):
            continue
        disjunct_preds: list[list[AtomicPredicate]] = []
        for factor in to_dnf(expr, max_terms=max_factors):
            atoms = []
            for leaf in factor:
                atomic = classify_atomic(leaf)
                if atomic is not None:
                    atoms.append(atomic)
            disjunct_preds.append(atoms)
        if not disjunct_preds:
            continue
        factor_sets = [
            existing + extra
            for existing in factor_sets
            for extra in disjunct_preds
        ][:max_factors]

    join_cols = set(join_columns)
    groups: list[PredicateGroup] = []
    seen: set[tuple] = set()
    for atoms in factor_sets:
        group = PredicateGroup(binding=binding, ipp_columns=set(join_cols))
        for pred in atoms:
            col = pred.column.column
            if is_ipp(pred):
                group.ipp_columns.add(col)
            elif is_range(pred):
                group.range_predicates.setdefault(col, []).append(pred)
        if group.is_empty():
            continue
        key = (
            frozenset(group.ipp_columns),
            frozenset(group.range_predicates),
        )
        if key in seen:
            continue
        seen.add(key)
        groups.append(group)
    return groups


@dataclass
class RangeColumnChooser:
    """Chooses the single range column of Algorithm 5 line 6.

    ``last_col = argmin_{c in C_RSP} dataless_index_cost(Q, <C_IPP, {c}>)``

    With an evaluator, builds the dataless candidate per range column and
    asks the optimizer (the paper's "role of dataless indexes",
    Sec. V-B).  Without one, *stats_lookup* picks the most selective
    range column by histogram; without either -- the ablation's degraded
    mode -- the first range column by name is picked.
    """

    evaluator: Optional[object] = None    # CostEvaluator, avoided import cycle
    stats_lookup: Optional[object] = None

    def choose(
        self,
        info: QueryInfo,
        group: PredicateGroup,
        table: str,
    ) -> Optional[str]:
        # A column already equality-bound in C_IPP is pinned by the
        # prefix; its range predicates are residual and it cannot also
        # be the trailing range column (<C_IPP, {c}> must be duplicate
        # free).
        candidates = sorted(
            c for c in group.range_columns if c not in group.ipp_columns
        )
        if not candidates:
            return None
        if len(candidates) == 1:
            return candidates[0]
        if self.evaluator is not None:
            from ..catalog import Index

            base = self.evaluator.cost(info, [])
            best_col, best_cost = None, float("inf")
            prefix = tuple(sorted(group.ipp_columns))
            for col in candidates:
                index = Index(table, prefix + (col,), dataless=True)
                cost = self.evaluator.cost(info, [index])
                if cost < best_cost:
                    best_col, best_cost = col, cost
            if best_cost < base:
                return best_col
            # No candidate changed the plan (dataless dive inconclusive):
            # fall back to histogram selectivity.
            stats = self.evaluator.optimizer.db.stats
            return self._by_selectivity(
                group, candidates, lambda col: stats.table(table).column(col)
            )
        if self.stats_lookup is not None:
            return self._by_selectivity(
                group, candidates, lambda col: self.stats_lookup(table, col)
            )
        return candidates[0]

    @staticmethod
    def _by_selectivity(group, candidates, column_stats):
        from ..optimizer.selectivity import combined_range_selectivity

        def sel(col: str) -> float:
            return combined_range_selectivity(
                group.range_predicates[col], column_stats(col)
            )

        return min(candidates, key=lambda c: (sel(c), c))
