"""Shared candidate machinery for the baseline algorithms.

The baselines use the classic *syntactically relevant* candidate scheme:
columns appearing in sargable filters, join predicates, GROUP BY or ORDER
BY are indexable; multi-column candidates are built per query by ordering
a query's indexable columns (equality columns first, by selectivity) and
taking prefixes, plus a bounded set of permutations.  This mirrors the
candidate generation of the Kossmann et al. framework without borrowing
AIM's partial-order machinery (which is the paper's contribution).
"""

from __future__ import annotations

import itertools
from typing import Iterable

from ..catalog import Index
from ..optimizer import CostEvaluator
from ..optimizer.query_info import QueryInfo
from ..workload import Workload
from ..core.ipp import is_range

#: Cap on permutation-based candidates per (query, table).
MAX_PERMUTATIONS = 6


def indexable_columns(info: QueryInfo) -> dict[str, list[str]]:
    """Per real table: the query's indexable columns, most useful first.

    Order: equality-filter columns, join columns, range columns, GROUP BY
    columns, ORDER BY columns (deduplicated).
    """
    out: dict[str, list[str]] = {}
    for binding, table in info.bindings.items():
        ordered: list[str] = []
        filters = info.filters.get(binding, [])
        for pred in filters:
            if pred.is_ipp:
                ordered.append(pred.column.column)
        ordered.extend(column for column, _other, _other_column in info.joins[binding])
        for pred in filters:
            if is_range(pred):
                ordered.append(pred.column.column)
        for g_binding, column in info.group_by:
            if g_binding == binding:
                ordered.append(column)
        for item in info.order_by:
            if item.binding == binding:
                ordered.append(item.column)
        if ordered:
            existing = out.setdefault(table, [])
            for col in ordered:
                if col not in existing:
                    existing.append(col)
    return out


def single_column_candidates(
    evaluator: CostEvaluator, workload: Workload
) -> list[Index]:
    """All single-column candidates over the workload's indexable columns."""
    seen: set[tuple[str, str]] = set()
    out: list[Index] = []
    for query in workload:
        info = evaluator.analyze(query.sql)
        for table, columns in indexable_columns(info).items():
            for col in columns:
                key = (table, col)
                if key not in seen:
                    seen.add(key)
                    out.append(Index(table, (col,), dataless=True))
    return out


def per_query_candidates(
    evaluator: CostEvaluator,
    workload: Workload,
    max_width: int,
    with_permutations: bool = True,
) -> dict[str, list[Index]]:
    """Per query key: syntactically relevant candidates up to *max_width*."""
    out: dict[str, list[Index]] = {}
    for query in workload:
        # Analyze first: it keeps the parsed statement that is_dml reads.
        info = query.analyze(evaluator.schema)
        if query.is_dml:
            continue
        candidates: dict[tuple, Index] = {}
        for table, columns in indexable_columns(info).items():
            for width in range(1, min(max_width, len(columns)) + 1):
                prefix = tuple(columns[:width])
                idx = Index(table, prefix, dataless=True)
                candidates[idx.key] = idx
                if with_permutations and width > 1:
                    for perm in itertools.islice(
                        itertools.permutations(columns[:width]), MAX_PERMUTATIONS
                    ):
                        pidx = Index(table, tuple(perm), dataless=True)
                        candidates[pidx.key] = pidx
        out[query.normalized_sql] = list(candidates.values())
    return out


def candidate_pool(
    evaluator: CostEvaluator,
    workload: Workload,
    max_width: int,
    with_permutations: bool = True,
) -> list[Index]:
    """Deduplicated union of all per-query candidates."""
    pool: dict[tuple, Index] = {}
    per_query = per_query_candidates(
        evaluator, workload, max_width, with_permutations
    )
    for candidates in per_query.values():
        for idx in candidates:
            pool[idx.key] = idx
    return list(pool.values())


def config_size(db, indexes: Iterable[Index]) -> int:
    return sum(db.index_size_bytes(idx) for idx in indexes)

