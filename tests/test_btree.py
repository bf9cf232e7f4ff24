"""SortedIndex (B-tree emulation) tests."""

from hypothesis import given, strategies as st

from repro.engine.btree import SortedIndex, wrap_key


def columns_for(entries, width):
    """*width* empty columns indexed by row id, long enough for *entries*,
    and their kinds."""
    size = max((rid for _key, rid in entries), default=-1) + 1
    return [[None] * size for _ in range(width)], [set() for _ in range(width)]


def build(entries, width=None):
    """An index over ``(key, row id)`` entries inserted one by one, each
    row's values written to the columns first, as the storage does."""
    if width is None:
        width = len(entries[0][0]) if entries else 1
    columns, kinds = columns_for(entries, width)
    idx = SortedIndex(columns, kinds)
    for key, rid in entries:
        for column, kind, value in zip(columns, kinds, key):
            column[rid] = value
            kind.add(type(value))
        idx.retype()
        idx.insert(rid)
    return idx


def test_insert_and_len():
    idx = build([((1, "a"), 0), ((2, "b"), 1)])
    assert len(idx) == 2


def test_delete_existing_and_missing():
    idx = build([((1, "a"), 0)])
    assert idx.delete(0) is True
    assert idx.delete(0) is False
    assert len(idx) == 0


def test_scan_all_in_key_order():
    idx = build([((3,), 0), ((1,), 1), ((2,), 2)])
    rids = [rid for _k, rid in idx.scan_all()]
    assert rids == [1, 2, 0]


def test_scan_all_reverse():
    idx = build([((1,), 1), ((2,), 2)])
    rids = [rid for _k, rid in idx.scan_all(reverse=True)]
    assert rids == [2, 1]


def test_scan_prefix_equality():
    idx = build([((1, 10), 0), ((1, 20), 1), ((2, 10), 2)])
    rids = [rid for _k, rid in idx.scan_prefix((1,))]
    assert rids == [0, 1]


def test_scan_prefix_with_range_bounds():
    idx = build([((1, i), i) for i in range(10)])
    rids = [rid for _k, rid in idx.scan_prefix((1,), low=3, high=6)]
    assert rids == [3, 4, 5, 6]
    rids = [
        rid for _k, rid in idx.scan_prefix(
            (1,), low=3, high=6, low_inclusive=False, high_inclusive=False
        )
    ]
    assert rids == [4, 5]


def test_scan_open_low_bound():
    idx = build([((1, i), i) for i in range(5)])
    rids = [rid for _k, rid in idx.scan_prefix((1,), high=2)]
    assert rids == [0, 1, 2]


def test_nulls_sort_first():
    idx = build([((None,), 0), ((1,), 1), (("x",), 2)])
    rids = [rid for _k, rid in idx.scan_all()]
    assert rids == [0, 1, 2]   # NULL < number < string


def test_duplicate_keys_tie_break_by_rowid():
    idx = build([((1,), 5), ((1,), 2), ((1,), 9)])
    rids = [rid for _k, rid in idx.scan_prefix((1,))]
    assert rids == [2, 5, 9]


def test_span_covers_long_runs_of_equal_values():
    """Runs of equal values longer than the range a delete searches by
    ``list.index``, with a tail column that orders each run."""
    entries = [((k, i), 3 * i + k) for k in (0, 1, 2) for i in range(40)]
    idx = build(entries)
    for k in (0, 1, 2):
        lo, hi = idx.span((k,))
        assert idx.rids[lo:hi] == [3 * i + k for i in range(40)]
        lo, hi = idx.span((k,), low=5, high=30, high_inclusive=False)
        assert idx.rids[lo:hi] == [3 * i + k for i in range(5, 30)]
    deleted = {rid for _key, rid in entries[::7]}
    for rid in deleted:
        assert idx.delete(rid) is True
        assert idx.delete(rid) is False
    assert [rid for _k, rid in idx.scan_all()] == [
        rid for _key, rid in sorted(entries) if rid not in deleted]


def test_wrap_key_equality_and_ordering():
    assert wrap_key((1, "a")) == wrap_key((1, "a"))
    assert wrap_key((None,)) < wrap_key((0,))
    assert wrap_key((0,)) < wrap_key(("",))
    assert wrap_key((True,)) == wrap_key((1,))


def test_clear():
    idx = build([((1,), 0)])
    idx.clear()
    assert len(idx) == 0


# ---------------------------------------------------------------------------
# properties over mixed NULL / bool / int / float / str keys
#
# The model restates the per-column order directly: NULL < numbers (bools
# as ints) < strings, each column compared as a (rank, value) pair.


def model_pair(v):
    if v is None:
        return (0, 0)
    if isinstance(v, bool):
        return (1, int(v))
    if isinstance(v, (int, float)):
        return (1, v)
    return (2, str(v))


def model_key(key):
    return tuple(model_pair(v) for v in key)


values = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(-3, 3, allow_nan=False)
    | st.text(alphabet="ab", max_size=2)
)
keys = st.tuples(values, values)

#: Value domains for one key column of a build.  The builder sorts a column
#: of only ints/floats or only strs on its raw values and every other column
#: on wrapped pairs, so each domain lands on a different path.
column_domains = st.sampled_from([
    values,
    st.integers(-3, 3),
    st.floats(-3, 3, allow_nan=False),
    st.text(alphabet="ab", max_size=2),
    st.booleans() | st.integers(-1, 2),             # bool mixed with int
    st.integers(-3, 3) | st.floats(-3, 3, allow_nan=False),   # int with float
    st.none() | st.integers(-3, 3),
])


@st.composite
def entry_lists(draw, key_values=keys):
    """Unique (key, row_id) entries in a random insertion order."""
    ks = draw(st.lists(key_values, max_size=40))
    rids = draw(st.permutations(range(len(ks))))
    return list(zip(ks, rids))


def build_from(entries):
    """SortedIndex.build over raw two-column entries, in row-id order; the
    columns are indexed by row id, with gaps where no entry has that id."""
    entries = sorted(entries, key=lambda e: e[1])
    columns, kinds = columns_for(entries, 2)
    for key, rid in entries:
        for column, kind, value in zip(columns, kinds, key):
            column[rid] = value
            kind.add(type(value))
    return SortedIndex.build(columns, kinds, [rid for _key, rid in entries])


def reprs(index):
    return list(map(repr, index.scan_all()))


@given(st.data())
def test_bulk_load_equals_one_by_one_inserts(data):
    domains = data.draw(st.tuples(column_domains, column_domains))
    entries = data.draw(entry_lists(st.tuples(*domains)))
    built = build_from(entries)
    one_by_one = build(entries, 2)
    assert list(built.scan_all()) == list(one_by_one.scan_all())
    assert reprs(built) == reprs(one_by_one)
    expected = [rid for _k, rid in sorted(
        entries, key=lambda e: (model_key(e[0]), e[1])
    )]
    assert [rid for _k, rid in built.scan_all()] == expected


@given(st.data())
def test_build_with_key_tail_equals_one_by_one_inserts(data):
    """A tail column (a secondary index's PK) with duplicate values: the
    build input is in (tail, row id) order and sorts on the key column
    only, inserts come in any order, and both equal an index that sorts
    on both columns."""
    domain = data.draw(column_domains)
    entries = data.draw(entry_lists(st.tuples(domain, st.integers(0, 3))))
    inserted = build(entries, 2)
    entries.sort(key=lambda e: (model_key(e[0][1:]), e[1]))
    columns, kinds = inserted.columns, inserted.kinds
    built = SortedIndex.build(
        columns, kinds, [rid for _key, rid in entries], sort_columns=1
    )
    one_by_one = build(entries, 2)
    assert list(built.scan_all()) == list(one_by_one.scan_all())
    assert list(inserted.scan_all()) == list(one_by_one.scan_all())
    assert reprs(built) == reprs(inserted)
    for _key, rid in entries:
        assert built.delete(rid) is True
        assert built.delete(rid) is False
    assert len(built) == 0


@given(
    entry_lists(),
    st.lists(values, max_size=1),
    st.none() | values,
    st.none() | values,
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
def test_scan_prefix_matches_brute_force(
    entries, prefix, low, high, low_inc, high_inc, reverse
):
    index = build_from(entries)
    got = [rid for _k, rid in index.scan_prefix(
        prefix, low, high, low_inc, high_inc, reverse=reverse
    )]
    p, k = model_key(prefix), len(prefix)
    expected = []
    for key, rid in sorted(entries, key=lambda e: (model_key(e[0]), e[1])):
        mk = model_key(key)
        if mk[:k] != p:
            continue
        if low is not None and (
            mk[k] < model_pair(low) or (not low_inc and mk[k] == model_pair(low))
        ):
            continue
        if high is not None and (
            mk[k] > model_pair(high) or (not high_inc and mk[k] == model_pair(high))
        ):
            continue
        expected.append(rid)
    if reverse:
        expected.reverse()
    assert got == expected


@given(entry_lists(), st.data())
def test_delete_after_bulk_load(entries, data):
    index = build_from(entries)
    n = len(entries)
    drop = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    for (_key, rid), gone in zip(entries, drop):
        if gone:
            assert index.delete(rid) is True
            assert index.delete(rid) is False
    remaining = [e for e, gone in zip(entries, drop) if not gone]
    expected = build_from(remaining)
    assert list(index.scan_all()) == list(expected.scan_all())


@given(
    entry_lists(),
    st.lists(values, max_size=2),
    st.none() | values,
    st.none() | values,
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
def test_span_row_ids_equal_scan_prefix(
    entries, prefix, low, high, low_inc, high_inc, reverse
):
    """Slicing ``rids`` by :meth:`SortedIndex.span` (the executor's index
    scan) reads the row ids :meth:`SortedIndex.scan_prefix` yields."""
    index = build_from(entries)
    lo, hi = index.span(prefix, low, high, low_inc, high_inc)
    got = index.rids[lo:hi]
    if reverse:
        got.reverse()
    assert got == [rid for _k, rid in index.scan_prefix(
        prefix, low, high, low_inc, high_inc, reverse=reverse
    )]
