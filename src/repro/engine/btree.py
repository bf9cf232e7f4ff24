"""Sorted index structure and its builder.

A :class:`SortedIndex` emulates a B+ tree with two parallel sorted lists,
flat keys and row ids, and binary search.  It supports the access
patterns the executor needs: equality/prefix probes, bounded range scans
and full in-order scans, forward or backward.  NULLs sort before every
non-NULL value (MySQL/InnoDB semantics).

Keys are stored flat, one ``(rank, value)`` pair per column (see
:func:`wrap_key`).  Every pair has the same width, so flat tuples compare
column by column, ranks first, and sort, ``bisect`` and equality run
natively instead of calling a Python comparison per value.

:meth:`SortedIndex.build` builds an index column-wise, with one stable
sort per key column, from entries already ordered by the key's tail.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import repeat
from operator import add, itemgetter
from typing import Any, Iterable, Iterator, Optional, Sequence

#: Rank sentinel above every real rank: ``prefix + (_ABOVE,)`` sorts after
#: all keys extending *prefix*.
_ABOVE = 3

#: A column whose values all have types in one of these sets orders its
#: raw values as :func:`wrap_key` orders them: every pair has one rank.
_NUMBERS = frozenset((int, float))
_STRINGS = frozenset((str,))


def wrap_key(values: Iterable[Any]) -> tuple:
    """Flatten a key tuple into ``(rank0, v0, rank1, v1, ...)``: NULL ->
    ``(0, 0)``, bool -> ``(1, int(v))``, number -> ``(1, v)``, anything
    else -> ``(2, str(v))``, so NULL < numbers < strings."""
    flat: list = []
    for v in values:
        cls = v.__class__
        if cls is int or cls is float:   # exact-type checks first: cheapest
            flat += (1, v)
        elif cls is str:
            flat += (2, v)
        elif v is None:
            flat += (0, 0)
        elif isinstance(v, (int, float)):   # bool and other number subclasses
            flat += (1, int(v) if cls is bool else v)
        else:
            flat += (2, str(v))
    return tuple(flat)


def unwrap_key(flat: Sequence[Any]) -> tuple:
    """Column values of a flat key, as the index compares them
    (NULL -> ``None``, bool -> int, non-numbers -> str)."""
    return tuple(
        None if rank == 0 else value
        for rank, value in zip(flat[::2], flat[1::2])
    )


class SortedIndex:
    """A sorted (key, row_id) mapping emulating a B+ tree.

    Entries are ordered by ``(flat key, row id)`` and kept in two parallel
    lists, ``keys`` and ``rids``, so an entry needs no pair tuple.  The
    structure intentionally stays flat: at reproduction scale (<= a few
    million rows) bisect operations dominate and behave exactly like tree
    descents for cost accounting purposes.
    """

    def __init__(self, n_key_columns: int):
        self.n_key_columns = n_key_columns
        self.keys: list[tuple] = []
        self.rids: list[int] = []

    @classmethod
    def build(
        cls,
        columns: Sequence[Sequence[Any]],
        row_ids: Sequence[int],
        suffix: Optional[Sequence[tuple]] = None,
    ) -> "SortedIndex":
        """Build an index over ``len(row_ids)`` entries in one pass per
        key column.

        Entry ``i`` has key column values ``columns[c][i]`` (one or more
        columns), row id ``row_ids[i]`` and, when *suffix* is given, the
        flat key tail ``suffix[i]`` (a secondary index's flat PK).  The
        entries must already be sorted by ``(suffix, row id)``; for a
        secondary index that is the PK index's order, for the PK index
        ascending row ids.  Stable sorts by each key column, last column
        first, then leave them sorted by ``(flat key, row id)``: entries
        with equal flat keys keep their input order.  The result equals
        inserting the entries one by one, entry for entry.
        """
        order: Sequence[int] = range(len(row_ids))
        sorted_on: list[tuple[Optional[int], Sequence[Any]]] = []
        for values in reversed(columns):
            kinds = set(map(type, values))
            if kinds <= _NUMBERS:
                sort_values, rank = values, 1
            elif kinds == _STRINGS:
                sort_values, rank = values, 2
            else:               # NULLs, bools, mixed ranks: sort on pairs
                sort_values, rank = [wrap_key((v,)) for v in values], None
            # Raw ints, floats or strs sort on CPython's type-specialised
            # comparisons.  The sort is stable: ties keep the previous
            # pass's order.
            order = sorted(order, key=sort_values.__getitem__)
            sorted_on.append((rank, sort_values))
        parts: list[Iterable[Any]] = []
        for rank, sort_values in reversed(sorted_on):
            ordered = map(sort_values.__getitem__, order)
            if rank is None:
                pairs = list(ordered)
                parts += (map(itemgetter(0), pairs), map(itemgetter(1), pairs))
            else:
                parts += (repeat(rank), ordered)
        index = cls(len(columns))
        if suffix is None:
            index.keys = list(zip(*parts))
        else:
            index.keys = list(map(add, zip(*parts), map(suffix.__getitem__, order)))
        index.rids = list(map(row_ids.__getitem__, order))
        return index

    def __len__(self) -> int:
        return len(self.rids)

    def _locate(self, flat: tuple, row_id: int) -> int:
        """Position of the entry ``(flat, row_id)``, or where it would go:
        among the entries whose key is *flat*, ordered by row id."""
        keys, rids = self.keys, self.rids
        pos = bisect_left(keys, flat)
        if pos < len(keys) and keys[pos] == flat and rids[pos] < row_id:
            pos = bisect_left(rids, row_id, pos + 1, bisect_right(keys, flat, pos))
        return pos

    def insert(self, key: Sequence[Any], row_id: int) -> None:
        """Insert an entry (duplicates allowed; ties broken by row id)."""
        flat = wrap_key(key)
        pos = self._locate(flat, row_id)
        self.keys.insert(pos, flat)
        self.rids.insert(pos, row_id)

    def delete(self, key: Sequence[Any], row_id: int) -> bool:
        """Remove an entry; returns False if it was not present."""
        flat = wrap_key(key)
        pos = self._locate(flat, row_id)
        if pos < len(self.rids) and self.rids[pos] == row_id and self.keys[pos] == flat:
            del self.keys[pos]
            del self.rids[pos]
            return True
        return False

    def span(
        self,
        prefix: Sequence[Any],
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> tuple[int, int]:
        """Positions ``[lo, hi)`` of the entries matching an equality
        *prefix*, optionally bounded on the next key column by [low, high]
        (``None`` = unbounded): ``rids[lo:hi]`` are their row ids in key
        order."""
        flat = wrap_key(prefix)
        lo_key = flat
        if low is not None:
            lo_key = flat + wrap_key((low,))
            if not low_inclusive:
                lo_key += (_ABOVE,)
        if high is None:
            hi_key = flat + (_ABOVE,)
        else:
            hi_key = flat + wrap_key((high,))
            if high_inclusive:
                hi_key += (_ABOVE,)
        lo = bisect_left(self.keys, lo_key)
        return lo, bisect_left(self.keys, hi_key, lo)

    def scan_prefix(
        self,
        prefix: Sequence[Any],
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        reverse: bool = False,
    ) -> Iterator[tuple[tuple, int]]:
        """The entries of :meth:`span` as ``(flat_key, row_id)`` pairs, in
        key order, or in reverse key order with ``reverse=True``."""
        lo, hi = self.span(prefix, low, high, low_inclusive, high_inclusive)
        positions = range(hi - 1, lo - 1, -1) if reverse else range(lo, hi)
        return zip(
            map(self.keys.__getitem__, positions),
            map(self.rids.__getitem__, positions),
        )

    def scan_all(self, reverse: bool = False) -> Iterator[tuple[tuple, int]]:
        """Full scan in key order (or reverse key order)."""
        return self.scan_prefix((), reverse=reverse)

    def clear(self) -> None:
        self.keys.clear()
        self.rids.clear()
