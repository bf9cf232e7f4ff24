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

A secondary index's keys hold only its own columns.  Its entries are
ordered by ``(flat key, tail, row id)``, where the *tail* is a callable
that reads the row's flat primary key from the live row; scans append the
tail, so a secondary entry reads as its columns followed by the PK.

:meth:`SortedIndex.build` builds an index column-wise, with one stable
sort per key column, from entries already ordered by ``(tail, row id)``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import repeat
from operator import add, itemgetter
from typing import Any, Callable, Collection, Iterable, Iterator, Optional, Sequence

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


def flat_reader(columns: Sequence[Sequence[Any]]) -> Callable[[int], tuple]:
    """``row_id -> wrap_key(column[row_id] for column in columns)``.

    The storage reads a row's flat key in each index this way on every
    index write, and a secondary index its tail (the row's flat PK) on
    inserts into a run of equal keys, so one- and two-column keys of
    exact ints are flattened inline.
    """
    if len(columns) == 1:
        (column,) = columns

        def read(row_id: int) -> tuple:
            value = column[row_id]
            return (1, value) if value.__class__ is int else wrap_key((value,))
    elif len(columns) == 2:
        first, second = columns

        def read(row_id: int) -> tuple:
            a, b = first[row_id], second[row_id]
            if a.__class__ is int and b.__class__ is int:
                return (1, a, 1, b)
            return wrap_key((a, b))
    else:
        def read(row_id: int) -> tuple:
            return wrap_key([column[row_id] for column in columns])
    return read


def unwrap_key(flat: Sequence[Any]) -> tuple:
    """Column values of a flat key, as the index compares them
    (NULL -> ``None``, bool -> int, non-numbers -> str)."""
    return tuple(
        None if rank == 0 else value
        for rank, value in zip(flat[::2], flat[1::2])
    )


class SortedIndex:
    """A sorted (key, row_id) mapping emulating a B+ tree.

    Entries are kept in two parallel lists, ``keys`` and ``rids``, so an
    entry needs no pair tuple.  Equal keys are ordered by ``(tail(row id),
    row id)`` when the index has a *tail* (a secondary index: the row's
    flat PK) and by row id otherwise (the PK index).  The tail is read
    from the live row, so the row must hold the values an entry was
    placed by for as long as the entry exists.  The structure
    intentionally stays flat: at reproduction scale (<= a few million
    rows) bisect operations dominate and behave exactly like tree descents
    for cost accounting purposes.
    """

    def __init__(self, tail: Optional[Callable[[int], tuple]] = None):
        self.tail = tail
        self.keys: list[tuple] = []
        self.rids: list[int] = []

    @classmethod
    def build(
        cls,
        columns: Sequence[Sequence[Any]],
        row_ids: Sequence[int],
        tail: Optional[Callable[[int], tuple]] = None,
        kinds: Optional[Sequence[Collection[type]]] = None,
    ) -> "SortedIndex":
        """Build an index over the rows *row_ids* in one pass per key
        column.

        Each key column (one or more) is indexed by row id: row ``r`` has
        the values ``columns[c][r]``; rows outside *row_ids* are ignored.
        ``kinds[c]``, when given, holds every type of ``columns[c]``'s
        values at *row_ids* (a superset will do); otherwise the values are
        read for it.  *row_ids* must already be sorted by ``(tail(row
        id), row id)``, or ascending without a *tail*: for a secondary
        index that is the PK index's order, for the PK index ascending
        row ids.  Stable sorts of the row ids by each key column, last
        column first, then leave them sorted by ``(flat key, tail, row
        id)``: rows with equal flat keys keep their input order.  The
        result equals inserting the entries one by one, entry for entry.
        """
        order: Sequence[int] = row_ids
        sorted_on: list[tuple[Optional[int], Sequence[Any]]] = []
        for c in reversed(range(len(columns))):
            values = columns[c]
            types = (
                set(map(type, map(values.__getitem__, row_ids)))
                if kinds is None else kinds[c]
            )
            if types <= _NUMBERS:
                sort_values, rank = values, 1
            elif types == _STRINGS:
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
        index = cls(tail)
        index.keys = list(zip(*parts))
        index.rids = list(order) if order is row_ids else order
        return index

    def __len__(self) -> int:
        return len(self.rids)

    def insert(self, key: Sequence[Any], row_id: int) -> None:
        """Insert an entry (duplicates allowed; ties broken by tail, then
        row id).  The row must already hold its tail's values."""
        self.insert_flat(wrap_key(key), row_id)

    def insert_flat(self, flat: tuple, row_id: int) -> None:
        """:meth:`insert` for a key already flattened by :func:`wrap_key`."""
        keys, rids, tail = self.keys, self.rids, self.tail
        pos = bisect_right(keys, flat)
        if pos and keys[pos - 1] == flat:
            # pos ends a run of equal keys; a new row usually sorts last.
            last = rids[pos - 1]
            if tail is None:
                inside = last > row_id
            else:
                mine, theirs = tail(row_id), tail(last)
                inside = theirs > mine or (theirs == mine and last > row_id)
            if inside:
                lo = bisect_left(keys, flat, 0, pos)
                if tail is None:
                    pos = bisect_left(rids, row_id, lo, pos - 1)
                else:
                    pos = bisect_left(rids, mine, lo, pos - 1, key=tail)
                    while rids[pos] < row_id and tail(rids[pos]) == mine:
                        pos += 1
        keys.insert(pos, flat)
        rids.insert(pos, row_id)

    def delete(self, key: Sequence[Any], row_id: int) -> bool:
        """Remove an entry; returns False if it was not present.

        Scans ``rids`` for the row id from the start of the key's run,
        with no bisect for the run's end and no tail calls: a stored entry
        lies inside its run, and a row id found past the run is stored
        under another key.  Only a missing entry scans past its run.
        """
        return self.delete_flat(wrap_key(key), row_id)

    def delete_flat(self, flat: tuple, row_id: int) -> bool:
        """:meth:`delete` for a key already flattened by :func:`wrap_key`."""
        keys, rids = self.keys, self.rids
        lo = bisect_left(keys, flat)
        if lo == len(keys) or keys[lo] != flat:
            return False
        try:
            pos = rids.index(row_id, lo)
        except ValueError:
            return False
        if keys[pos] != flat:
            return False
        del keys[pos]
        del rids[pos]
        return True

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
        key order, or in reverse key order with ``reverse=True``; a
        secondary entry's flat key ends with its tail."""
        lo, hi = self.span(prefix, low, high, low_inclusive, high_inclusive)
        keys, rids = self.keys[lo:hi], self.rids[lo:hi]
        if reverse:
            keys.reverse()
            rids.reverse()
        if self.tail is not None:
            keys = map(add, keys, map(self.tail, rids))
        return zip(keys, rids)

    def scan_all(self, reverse: bool = False) -> Iterator[tuple[tuple, int]]:
        """Full scan in key order (or reverse key order)."""
        return self.scan_prefix((), reverse=reverse)

    def clear(self) -> None:
        self.keys.clear()
        self.rids.clear()
