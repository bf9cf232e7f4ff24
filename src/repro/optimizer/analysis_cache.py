"""Process-wide memoized parse/analyze cache.

Every :class:`~repro.optimizer.what_if.CostEvaluator` used to re-parse
and re-resolve the same workload statements: the advisor, each baseline
and every fleet replica build their own evaluator over (clones of) the
same schema.  Parsing and resolution depend only on the statement text
and the table/column structure of the schema -- never on the index
configuration or the statistics -- so one interned :class:`QueryInfo`
per (schema shape, statement) serves them all.

The cache is a bounded LRU keyed by ``(schema_token, sql_text)``.  The
token is interned per schema fingerprint -- table names, column names
and primary keys, the inputs of name resolution -- so schema *clones*
made by ``Database.stats_clone`` share the cache entries, and it hashes
by identity, so a lookup costs O(1) however many tables the schema has.
``QueryInfo`` objects are treated as immutable after analysis.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Callable, Hashable, Optional

from ..catalog import Schema
from ..obs import BoundMetric
from ..sqlparser import ast, parse
from .query_info import QueryInfo, analyze_query

__all__ = ["LRUCache", "analyze_cached", "analysis_cache_info", "clear_analysis_cache", "schema_token"]

#: Process-wide bound on interned analyses.
ANALYSIS_CACHE_SIZE = 4096


_ANALYZE_HITS = BoundMetric(
    "counter", "analyze.cache_hits", "interned parse/analyze cache hits"
)


class LRUCache:
    """A small bounded LRU map (insertion-ordered dict based).

    ``get`` refreshes recency; ``put`` evicts the least recently used
    entry once ``maxsize`` is exceeded and reports it to ``on_evict``.
    """

    __slots__ = ("maxsize", "_data", "_on_evict")

    def __init__(
        self,
        maxsize: int,
        on_evict: Optional[Callable[[Hashable, object], None]] = None,
    ):
        self.maxsize = max(1, maxsize)
        self._data: OrderedDict = OrderedDict()
        self._on_evict = on_evict

    def get(self, key):
        try:
            value = self._data[key]
        except KeyError:
            return None
        self._data.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        data = self._data
        if key in data:
            data[key] = value
            data.move_to_end(key)
            return
        data[key] = value
        while len(data) > self.maxsize:
            evicted_key, evicted = data.popitem(last=False)
            if self._on_evict is not None:
                self._on_evict(evicted_key, evicted)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data

    def clear(self) -> None:
        self._data.clear()


class _SchemaToken:
    """Interned stand-in for one schema fingerprint; hashes by identity."""

    __slots__ = ("__weakref__",)


# Held weakly: the table never outgrows the live schemas plus the cache's
# own keys, however many schemas a process builds.
_tokens: "weakref.WeakValueDictionary[tuple, _SchemaToken]" = weakref.WeakValueDictionary()


def schema_token(schema: Schema) -> _SchemaToken:
    """The interned token of *schema*'s name-resolution inputs.

    Cached on the schema instance; invalidated when a table is added
    (index DDL does not affect analysis, so index changes keep it).
    """
    cached = getattr(schema, "_analysis_token", None)
    if cached is not None and cached[0] == len(schema.tables):
        return cached[1]
    fingerprint = tuple(
        (name, tuple(table.column_names), tuple(table.primary_key))
        for name, table in sorted(schema.tables.items())
    )
    token = _tokens.setdefault(fingerprint, _SchemaToken())
    # (table count, token): the count guards against add_table on a
    # schema whose token was already computed.
    schema._analysis_token = (len(schema.tables), token)
    return token


_cache = LRUCache(ANALYSIS_CACHE_SIZE)
_hits = 0
_misses = 0


def analyze_cached(schema: Schema, stmt) -> QueryInfo:
    """Parse/resolve *stmt* against *schema*, memoized process-wide.

    *stmt* may be a SQL string, a parsed :mod:`~repro.sqlparser.ast`
    statement, or an already-analyzed :class:`QueryInfo` (returned as
    is).
    """
    global _hits, _misses
    if isinstance(stmt, QueryInfo):
        return stmt
    if isinstance(stmt, str):
        text = stmt
        parsed: Optional[ast.Statement] = None
    else:
        parsed = stmt
        text = stmt.to_sql()
    key = (schema_token(schema), text)
    info = _cache.get(key)
    if info is not None:
        _hits += 1
        _ANALYZE_HITS.inc()
        return info
    if parsed is None:
        parsed = parse(text)
    info = analyze_query(parsed, schema)
    _misses += 1
    _cache.put(key, info)
    return info


def analysis_cache_info() -> dict:
    """Hit/miss/size snapshot (for tests and reports)."""
    return {"hits": _hits, "misses": _misses, "size": len(_cache)}


def clear_analysis_cache() -> None:
    """Drop all interned analyses (tests; schema teardown)."""
    global _hits, _misses
    _cache.clear()
    _hits = 0
    _misses = 0
