"""Sorted secondary index structure.

A :class:`SortedIndex` emulates a B+ tree with a sorted array of
``(key, row_id)`` entries and binary search.  It supports the access
patterns the executor needs: equality/prefix probes, bounded range scans
and full in-order scans, forward or backward.  NULLs sort before every
non-NULL value (MySQL/InnoDB semantics).

Keys are stored flat, one ``(rank, value)`` pair per column (see
:func:`wrap_key`).  Every pair has the same width, so flat tuples compare
column by column, ranks first, and sort, ``bisect`` and equality run
natively instead of calling a Python comparison per value.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable, Iterator, Sequence

#: Rank sentinel above every real rank: ``prefix + (_ABOVE,)`` sorts after
#: all keys extending *prefix*.
_ABOVE = 3


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

    The structure intentionally keeps a flat sorted list: at reproduction
    scale (<= a few million rows) bisect operations dominate and behave
    exactly like tree descents for cost accounting purposes.
    """

    def __init__(self, n_key_columns: int):
        self.n_key_columns = n_key_columns
        self._entries: list[tuple[tuple, int]] = []

    @classmethod
    def bulk_load(
        cls, n_key_columns: int, entries: Iterable[tuple[Sequence[Any], int]]
    ) -> "SortedIndex":
        """Build an index from raw ``(key, row_id)`` entries with one sort.

        ``(key, row_id)`` pairs are unique, so the result equals inserting
        the entries one by one, entry for entry.
        """
        index = cls(n_key_columns)
        index._entries = sorted((wrap_key(key), row_id) for key, row_id in entries)
        return index

    def __len__(self) -> int:
        return len(self._entries)

    def insert(self, key: Sequence[Any], row_id: int) -> None:
        """Insert an entry (duplicates allowed; ties broken by row id)."""
        bisect.insort(self._entries, (wrap_key(key), row_id))

    def delete(self, key: Sequence[Any], row_id: int) -> bool:
        """Remove an entry; returns False if it was not present."""
        entry = (wrap_key(key), row_id)
        pos = bisect.bisect_left(self._entries, entry)
        if pos < len(self._entries) and self._entries[pos] == entry:
            del self._entries[pos]
            return True
        return False

    def scan_prefix(
        self,
        prefix: Sequence[Any],
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        reverse: bool = False,
    ) -> Iterator[tuple[tuple, int]]:
        """Scan entries matching an equality *prefix*, optionally bounded
        on the next key column by [low, high] (``None`` = unbounded).

        Yields ``(flat_key, row_id)`` pairs in key order, or in reverse
        key order with ``reverse=True``.
        """
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
        # A one-element probe ``(k,)`` sorts before every entry ``(k, rid)``,
        # so bisect_left lands on the first entry whose key is >= k.
        lo = bisect.bisect_left(self._entries, (lo_key,))
        hi = bisect.bisect_left(self._entries, (hi_key,), lo)
        positions = range(hi - 1, lo - 1, -1) if reverse else range(lo, hi)
        return map(self._entries.__getitem__, positions)

    def scan_all(self, reverse: bool = False) -> Iterator[tuple[tuple, int]]:
        """Full scan in key order (or reverse key order)."""
        return self.scan_prefix((), reverse=reverse)

    def clear(self) -> None:
        self._entries.clear()
