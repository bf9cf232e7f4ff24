"""Property-based tests (hypothesis) for core invariants."""

import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog import Index
from repro.core import PartialOrder, merge_candidates_pairwise, merge_partial_orders
from repro.core.knapsack import knapsack_exact, knapsack_select
from repro.core.ranking import RankedCandidate
from repro.engine.btree import SortedIndex, wrap_key
from repro.sqlparser import normalize_sql, parse
from repro.stats import ColumnStats, Histogram, analyze_column

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

column_names = st.sampled_from([f"c{i}" for i in range(6)])


@st.composite
def partial_orders(draw, table="t"):
    columns = draw(
        st.lists(column_names, min_size=1, max_size=5, unique=True)
    )
    partitions = []
    remaining = list(columns)
    while remaining:
        size = draw(st.integers(1, len(remaining)))
        partitions.append(remaining[:size])
        remaining = remaining[size:]
    return PartialOrder.build(table, partitions)


values = st.one_of(
    st.integers(-1000, 1000),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(alphabet=string.ascii_lowercase, max_size=6),
    st.none(),
)


# ---------------------------------------------------------------------------
# partial orders & merging
# ---------------------------------------------------------------------------


@given(partial_orders())
def test_linearize_satisfies_own_order(po):
    assert po.satisfied_by(po.linearize())


@given(partial_orders())
def test_total_orders_all_satisfy(po):
    count = 0
    for total in po.total_orders():
        assert po.satisfied_by(total)
        count += 1
        if count > 50:
            break


@given(partial_orders(), partial_orders())
def test_merge_result_serves_p_as_prefix(p, q):
    """Whenever a merge succeeds, every linear extension of the result
    starts with a valid linear extension of P and extends Q."""
    merged = merge_candidates_pairwise(p, q)
    if merged is None:
        return
    assert merged.columns == q.columns
    total = merged.linearize()
    prefix = total[: p.width]
    assert set(prefix) == set(p.columns)
    assert p.satisfied_by(prefix)
    assert q.satisfied_by(total)


@given(st.lists(partial_orders(), min_size=1, max_size=5))
@settings(deadline=None)
def test_merge_fixpoint_contains_inputs(orders):
    result = merge_partial_orders(set(orders), max_orders=128)
    assert set(orders) <= result


@given(partial_orders())
def test_self_merge_identity(po):
    assert merge_candidates_pairwise(po, po) == po


# ---------------------------------------------------------------------------
# sorted index vs model
# ---------------------------------------------------------------------------


@given(st.lists(st.integers(0, 20), max_size=60), st.data())
def test_sorted_index_matches_sorted_list_model(keys, data):
    """Row ``r`` has key ``keys[r]``; rows are inserted in a random order."""
    index = SortedIndex([keys], [{int}])
    for rid in data.draw(st.permutations(range(len(keys)))):
        index.insert(rid)
    model = sorted(range(len(keys)), key=lambda rid: (wrap_key((keys[rid],)), rid))
    assert [rid for _k, rid in index.scan_all()] == model


@given(
    st.lists(st.integers(0, 10), max_size=40),
    st.integers(0, 10),
    st.integers(0, 10),
)
def test_sorted_index_range_scan_model(keys, low, high):
    if low > high:
        low, high = high, low
    index = SortedIndex([keys], [{int}])
    for rid in range(len(keys)):
        index.insert(rid)
    got = sorted(rid for _k, rid in index.scan_prefix((), low=low, high=high))
    expected = [rid for rid, key in enumerate(keys) if low <= key <= high]
    assert got == expected


# ---------------------------------------------------------------------------
# parser / normalizer
# ---------------------------------------------------------------------------

sql_statements = st.sampled_from([
    "SELECT a FROM t WHERE x = 5",
    "SELECT a, b FROM t WHERE x IN (1, 2, 3) AND y > 1.5",
    "SELECT COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2",
    "SELECT t1.a FROM t1, t2 WHERE t1.id = t2.id ORDER BY t1.a DESC LIMIT 3",
    "UPDATE t SET a = 5 WHERE b BETWEEN 1 AND 2",
    "DELETE FROM t WHERE a LIKE 'x%'",
    "INSERT INTO t (a, b) VALUES (1, 'two')",
])


@given(sql_statements)
def test_to_sql_roundtrip_is_stable(sql):
    once = parse(sql).to_sql()
    twice = parse(once).to_sql()
    assert once == twice


@given(sql_statements)
def test_normalization_idempotent(sql):
    once = normalize_sql(sql)
    assert normalize_sql(once) == once


@given(st.integers(-100, 100), st.integers(1, 50))
def test_normalization_erases_constants(value, limit):
    a = normalize_sql(f"SELECT a FROM t WHERE x = {value} LIMIT {limit}")
    b = normalize_sql("SELECT a FROM t WHERE x = 0 LIMIT 1")
    assert a == b


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


@given(st.lists(st.one_of(st.integers(-50, 50), st.none()), max_size=200))
def test_analyze_column_invariants(values_list):
    stats = analyze_column(values_list)
    assert stats.ndv >= 1
    assert 0.0 <= stats.null_frac <= 1.0
    assert 0.0 <= stats.eq_selectivity() <= 1.0
    assert 0.0 <= stats.is_null_selectivity() <= 1.0


@given(st.lists(st.integers(0, 1000), min_size=1, max_size=300), st.integers(0, 1000))
def test_histogram_fraction_below_is_monotone_and_bounded(values_list, probe):
    hist = Histogram.from_values(values_list)
    frac = hist.fraction_below(probe)
    assert 0.0 <= frac <= 1.0
    assert frac <= hist.fraction_below(probe, inclusive=True)


@given(
    st.lists(st.integers(0, 1000), min_size=1, max_size=200),
    st.integers(0, 1000),
    st.integers(0, 1000),
)
def test_histogram_between_consistent(values_list, a, b):
    low, high = min(a, b), max(a, b)
    hist = Histogram.from_values(values_list)
    frac = hist.fraction_between(low, high)
    assert 0.0 <= frac <= 1.0


# ---------------------------------------------------------------------------
# knapsack
# ---------------------------------------------------------------------------

candidates_strategy = st.lists(
    st.tuples(
        st.integers(0, 9),                       # column id
        st.floats(-10, 1000),                    # utility ~ benefit
        st.integers(1, 1_000_000),               # size
    ),
    max_size=12,
)


@given(candidates_strategy, st.integers(0, 2_000_000))
def test_knapsack_never_exceeds_budget(items, budget):
    candidates = [
        RankedCandidate(Index("t", (f"c{i}", f"d{n}")), benefit=b, size_bytes=s)
        for n, (i, b, s) in enumerate(items)
    ]
    chosen = knapsack_select(candidates, budget)
    assert sum(c.size_bytes for c in chosen) <= budget
    assert all(c.utility > 0 for c in chosen)


small_candidates = st.lists(
    st.tuples(st.integers(0, 9), st.floats(-10, 1000), st.integers(1, 2000)),
    max_size=10,
)


@given(small_candidates, st.integers(1, 5000))
def test_exact_knapsack_at_least_matches_greedy(items, budget):
    candidates = [
        RankedCandidate(Index("t", (f"c{i}", f"d{n}")), benefit=b, size_bytes=s)
        for n, (i, b, s) in enumerate(items)
    ]
    greedy = knapsack_select(candidates, budget, prune_prefixes=False)
    exact = knapsack_exact(candidates, budget, granularity=1)
    assert sum(c.size_bytes for c in exact) <= budget
    greedy_value = sum(c.utility for c in greedy)
    exact_value = sum(c.utility for c in exact)
    assert exact_value >= greedy_value - 1e-6


# ---------------------------------------------------------------------------
# selectivity estimation (driven by the seeded repro.qa generator)
# ---------------------------------------------------------------------------

from repro.optimizer.selectivity import MIN_SELECTIVITY, expr_selectivity
from repro.qa import GenConfig, ReferenceDatabase, generate_case
from repro.sqlparser import ast as _ast

_EPS = 1e-9


def _where_clauses(case):
    """(where-expr, stats-lookup) pairs for every generated SELECT."""
    from repro.sqlparser import parse

    db = case.database()
    reference = ReferenceDatabase(case.tables, case.rows)
    pairs = []
    for sql in case.statements:
        stmt = parse(sql)
        if not isinstance(stmt, _ast.Select) or stmt.where is None:
            continue
        bindings = {ref.binding: ref.name for ref in stmt.tables}
        for join in stmt.joins:
            bindings[join.table.binding] = join.table.name

        def lookup(ref, _bindings=bindings):
            binding = reference._resolve(ref, _bindings)
            return db.stats.table(_bindings[binding]).column(ref.column)

        pairs.append((stmt.where, lookup))
    return pairs


@pytest.mark.parametrize("seed", range(300, 310))
def test_selectivity_bounded_on_generated_predicates(seed):
    for where, lookup in _where_clauses(generate_case(seed)):
        sel = expr_selectivity(where, lookup)
        assert 0.0 <= sel <= 1.0, f"{where}: {sel}"


@pytest.mark.parametrize("seed", range(300, 310))
def test_and_selectivity_never_exceeds_cheapest_conjunct(seed):
    for where, lookup in _where_clauses(generate_case(seed)):
        if not isinstance(where, _ast.And):
            continue
        sel = expr_selectivity(where, lookup)
        parts = [expr_selectivity(item, lookup) for item in where.items]
        assert sel <= max(min(parts), MIN_SELECTIVITY) + _EPS


@pytest.mark.parametrize("seed", range(300, 310))
def test_or_selectivity_within_union_bounds(seed):
    for where, lookup in _where_clauses(generate_case(seed)):
        if not isinstance(where, _ast.Or):
            continue
        sel = expr_selectivity(where, lookup)
        parts = [expr_selectivity(item, lookup) for item in where.items]
        low = max(parts) - _EPS
        high = max(min(1.0, sum(parts)), MIN_SELECTIVITY) + _EPS
        assert low <= sel <= high


def test_histogram_and_ndv_fallback_agree_on_uniform_data():
    # On perfectly uniform data the histogram's measured fraction for
    # `col = v` must agree with the uniform-assumption fallback
    # non_null/ndv the optimizer uses when no histogram exists.
    ndv, repeat = 16, 8                        # 128 rows <= exact sample
    values = [v for v in range(ndv) for _ in range(repeat)]
    stats = analyze_column(values)
    assert stats.ndv == ndv
    fallback = ColumnStats(ndv=ndv)            # no histogram
    for v in range(ndv):
        with_hist = stats.eq_selectivity(v)
        without = fallback.eq_selectivity(v)
        assert with_hist == pytest.approx(without, rel=1e-6), (
            f"value {v}: histogram {with_hist} vs fallback {without}"
        )
    # And a range over half the domain measures ~half the rows.
    assert stats.between_selectivity(0, ndv // 2 - 1) == pytest.approx(
        0.5, abs=0.05
    )
