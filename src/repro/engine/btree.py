"""Sorted index structure and its builder.

A :class:`SortedIndex` emulates a B+ tree with one sorted list of row ids
and binary search.  It stores no keys: the key of an entry is its row's
values in the index's columns, read from the table's column lists (one
list per column, indexed by row id).  It supports the access patterns the
executor needs: equality/prefix probes, bounded range scans and full
in-order scans, forward or backward.  NULLs sort before every non-NULL
value (MySQL/InnoDB semantics).

Values compare as :func:`wrap_key` flattens them, one ``(rank, value)``
pair per column: NULL < numbers (bools as ints) < strings.  A column
whose values are all numbers, or all strs, has one rank, so it compares
its raw values (``bisect`` over ``values.__getitem__``, no Python call
per step); any other column compares through a reader that wraps each
value into its pair.

A secondary index's columns are its own followed by the primary key (the
*tail*): its entries are ordered by ``(key, tail, row id)``, the PK
index's by ``(PK, row id)``.  Every key is read from the live row, so the
row must hold the values its entry was placed by for as long as the entry
exists.

:meth:`SortedIndex.build` builds an index with one stable sort of the row
ids per key column, from row ids already ordered by ``(tail, row id)``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

#: A column whose values all have types in one of these sets orders its
#: raw values as :func:`wrap_key` orders them: every pair has one rank.
_NUMBERS = frozenset((int, float))
_STRINGS = frozenset((str,))

#: Row ranges at most this long are searched for a row id by ``list.index``
#: rather than narrowed further by bisection.
_SHORT = 16


def _pair(v: Any) -> tuple:
    """One value's ``(rank, value)`` pair: NULL -> ``(0, 0)``, bool ->
    ``(1, int(v))``, number -> ``(1, v)``, anything else -> ``(2, str(v))``."""
    cls = v.__class__
    if cls is int or cls is float:   # exact-type checks first: cheapest
        return (1, v)
    if cls is str:
        return (2, v)
    if v is None:
        return (0, 0)
    if isinstance(v, (int, float)):   # bool and other number subclasses
        return (1, int(v) if cls is bool else v)
    return (2, str(v))


def wrap_key(values: Iterable[Any]) -> tuple:
    """Flatten a key tuple into ``(rank0, v0, rank1, v1, ...)`` (see
    :func:`_pair`), so NULL < numbers < strings column by column."""
    return tuple(chain.from_iterable(map(_pair, values)))


def _comparer(
    values: Sequence[Any], kinds: set
) -> tuple[Callable[[int], Any], Optional[int]]:
    """``(key, rank)``: how an index compares a column's entries.  A column
    of one rank compares raw values and names the rank; any other column
    compares :func:`_pair` s (rank ``None``)."""
    if kinds <= _NUMBERS:
        return values.__getitem__, 1
    if kinds == _STRINGS:
        return values.__getitem__, 2
    return (lambda row_id: _pair(values[row_id])), None


class SortedIndex:
    """A sorted list of row ids emulating a B+ tree.

    ``columns[c]`` holds column ``c``'s values indexed by row id, and
    ``kinds[c]`` every type among them (a superset will do); both belong
    to the table and change with it.  ``rids`` is ordered by the row's
    values in ``columns``, column by column, then by row id.  After a
    write widens a column's kinds, :meth:`retype` must run before the
    index is read or changed.  The structure intentionally stays flat: at
    reproduction scale (<= a few million rows) bisect operations dominate
    and behave exactly like tree descents for cost accounting purposes.
    """

    def __init__(self, columns: Sequence[Sequence[Any]], kinds: Sequence[set]):
        self.columns = columns
        self.kinds = kinds
        self.rids: list[int] = []
        self.retype()

    def retype(self) -> None:
        """Pick each column's comparison from its kinds.  Raw and wrapped
        values order one-rank columns alike, so no entry moves."""
        comparers = list(map(_comparer, self.columns, self.kinds))
        self._keys = [key for key, _rank in comparers]
        self._ranks = [rank for _key, rank in comparers]

    @classmethod
    def build(
        cls,
        columns: Sequence[Sequence[Any]],
        kinds: Sequence[set],
        row_ids: Sequence[int],
        sort_columns: Optional[int] = None,
    ) -> "SortedIndex":
        """Build an index over the rows *row_ids*, which must be ordered by
        ``(columns[sort_columns:], row id)``: for a secondary index that
        is the PK index's order, for the PK index ascending row ids.

        Stable sorts of the row ids by each of the first *sort_columns*
        columns (all by default), last first, leave them ordered by every
        column, then row id.  The result equals inserting the row ids one
        by one.
        """
        index = cls(columns, kinds)
        order: Sequence[int] = row_ids
        count = len(columns) if sort_columns is None else sort_columns
        for key in reversed(index._keys[:count]):
            # A raw int, float or str column sorts on CPython's
            # type-specialised comparisons.  The sort is stable: ties keep
            # the previous pass's order.
            order = sorted(order, key=key)
        index.rids = list(order) if order is row_ids else order
        return index

    def __len__(self) -> int:
        return len(self.rids)

    def insert(self, row_id: int) -> None:
        """Insert the entry of row *row_id*, which must hold its values."""
        rids, keys = self.rids, self._keys
        lo, hi = 0, len(rids)
        for c, key in enumerate(keys):
            value = key(row_id)
            pos = bisect_right(rids, value, lo, hi, key=key)
            if pos == lo or key(rids[pos - 1]) != value:
                break
            # pos ends a run of equal values; a new row usually sorts last.
            last = rids[pos - 1]
            for later in keys[c + 1:]:
                theirs, mine = later(last), later(row_id)
                if theirs != mine:
                    after = theirs < mine
                    break
            else:
                after = last < row_id
            if after:
                break
            lo, hi = bisect_left(rids, value, lo, pos, key=key), pos
        else:
            pos = bisect_left(rids, row_id, lo, hi)
        rids.insert(pos, row_id)

    def delete(self, row_id: int) -> bool:
        """Remove the entry of row *row_id*, which must still hold the
        values it was inserted with; returns False if it was not present."""
        rids = self.rids
        lo, hi = 0, len(rids)
        for key in self._keys:
            if hi - lo <= _SHORT:
                break
            value = key(row_id)
            lo = bisect_left(rids, value, lo, hi, key=key)
            hi = bisect_right(rids, value, lo, hi, key=key)
        try:
            pos = rids.index(row_id, lo, hi)
        except ValueError:
            # Not where its values place it: absent, or unordered by a NaN.
            try:
                pos = rids.index(row_id)
            except ValueError:
                return False
        del rids[pos]
        return True

    def _probe(self, c: int, value: Any) -> tuple[Any, int]:
        """``(probe, side)`` for *value* in column *c*: side 0 when
        *probe* is to be bisected for; otherwise *value* sorts before
        (-1) or after (1) every entry of the column."""
        if c >= len(self._ranks):
            return None, 1   # an entry has no value past its last column
        rank, cls = self._ranks[c], value.__class__
        if rank == 1 and (cls is int or cls is float) or rank == 2 and cls is str:
            return value, 0
        probe = _pair(value)
        if rank is None:
            return probe, 0
        if probe[0] != rank:
            return None, -1 if probe[0] < rank else 1
        return probe[1], 0

    def span(
        self,
        prefix: Sequence[Any],
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> tuple[int, int]:
        """Positions ``[lo, hi)`` of the entries matching an equality
        *prefix*, optionally bounded on the next column by [low, high]
        (``None`` = unbounded): ``rids[lo:hi]`` are their row ids in key
        order."""
        rids, keys = self.rids, self._keys
        lo, hi = 0, len(rids)
        for c, value in enumerate(prefix):
            probe, side = self._probe(c, value)
            if side:
                return (lo, lo) if side < 0 else (hi, hi)
            lo = bisect_left(rids, probe, lo, hi, key=keys[c])
            hi = bisect_right(rids, probe, lo, hi, key=keys[c])
        c = len(prefix)
        if low is not None:
            probe, side = self._probe(c, low)
            if side:
                lo = lo if side < 0 else hi
            else:
                bisect = bisect_left if low_inclusive else bisect_right
                lo = bisect(rids, probe, lo, hi, key=keys[c])
        if high is not None:
            probe, side = self._probe(c, high)
            if side:
                hi = lo if side < 0 else hi
            else:
                bisect = bisect_right if high_inclusive else bisect_left
                hi = bisect(rids, probe, lo, hi, key=keys[c])
        return lo, hi

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
        key order, or in reverse key order with ``reverse=True``; the flat
        key covers every column, so a secondary entry's ends with its
        tail."""
        lo, hi = self.span(prefix, low, high, low_inclusive, high_inclusive)
        rids = self.rids[lo:hi]
        if reverse:
            rids.reverse()
        columns = self.columns
        keys = [wrap_key([values[r] for values in columns]) for r in rids]
        return zip(keys, rids)

    def scan_all(self, reverse: bool = False) -> Iterator[tuple[tuple, int]]:
        """Full scan in key order (or reverse key order)."""
        return self.scan_prefix((), reverse=reverse)
