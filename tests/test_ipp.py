"""IPP classification and predicate factorization tests (Sec. IV-B)."""

import pytest

from repro.catalog import Schema
from repro.core import factorize_index_predicates, is_range
from repro.core.ipp import RangeColumnChooser
from repro.optimizer import analyze_query
from repro.sqlparser import classify_atomic, parse, parse_select

from .conftest import orders_table, users_table


@pytest.fixture(scope="module")
def schema():
    return Schema.from_tables([users_table(), orders_table()])


def atom(cond):
    stmt = parse_select(f"SELECT a FROM t WHERE {cond}")
    return classify_atomic(stmt.where)


def info_for(sql, schema):
    return analyze_query(parse(sql), schema)


def test_ipp_operators():
    """Sec. IV-B2: =, <=>, IN, IS NULL are IPPs."""
    assert atom("x = 5").is_ipp
    assert atom("x <=> 5").is_ipp
    assert atom("x IN (1, 2)").is_ipp
    assert atom("x IS NULL").is_ipp


def test_range_operators_are_not_ipp():
    for cond in ("x > 5", "x <= 5", "x BETWEEN 1 AND 2"):
        pred = atom(cond)
        assert not pred.is_ipp
        assert is_range(pred)


def test_like_prefix_is_range_not_ipp():
    pred = atom("x LIKE 'abc%'")
    assert not pred.is_ipp
    assert is_range(pred)
    assert not is_range(atom("x LIKE '%abc'"))


def test_simple_conjunction_single_group(schema):
    info = info_for(
        "SELECT name FROM users WHERE city = 'a' AND age > 30", schema
    )
    groups = factorize_index_predicates(info, "users")
    assert len(groups) == 1
    assert groups[0].ipp_columns == {"city"}
    assert groups[0].range_columns == {"age"}


def test_paper_e2_factorization(schema):
    """E2's DNF yields two groups: {col1,col2,col3} and {col2,col4}."""
    info = info_for(
        "SELECT name FROM users WHERE "
        "(city = 'a' AND name = 'b' AND age > 5) OR (name = 'x' AND score < 2)",
        schema,
    )
    groups = factorize_index_predicates(info, "users")
    signatures = {
        (frozenset(g.ipp_columns), frozenset(g.range_columns)) for g in groups
    }
    assert (frozenset({"city", "name"}), frozenset({"age"})) in signatures
    assert (frozenset({"name"}), frozenset({"score"})) in signatures


def test_join_columns_join_every_group(schema):
    info = info_for(
        "SELECT u.name FROM users u, orders o "
        "WHERE u.id = o.user_id AND (o.status = 'a' OR o.amount > 5)",
        schema,
    )
    groups = factorize_index_predicates(info, "o", join_columns={"user_id"})
    assert len(groups) == 2
    assert all("user_id" in g.ipp_columns for g in groups)


def test_empty_predicates_no_groups(schema):
    info = info_for("SELECT name FROM users", schema)
    assert factorize_index_predicates(info, "users") == []


def test_join_columns_alone_form_group(schema):
    info = info_for(
        "SELECT u.name FROM users u, orders o WHERE u.id = o.user_id", schema
    )
    groups = factorize_index_predicates(info, "o", join_columns={"user_id"})
    assert len(groups) == 1
    assert groups[0].ipp_columns == {"user_id"}


def test_range_chooser_single_candidate(schema):
    info = info_for("SELECT name FROM users WHERE age > 70", schema)
    group = factorize_index_predicates(info, "users")[0]
    chooser = RangeColumnChooser()
    assert chooser.choose(info, group, "users") == "age"


def test_range_chooser_selectivity_fallback(db):
    """Without an evaluator, the most selective range column wins."""
    from repro.optimizer import analyze_query as aq

    info = aq(
        parse("SELECT name FROM users WHERE age > 79 AND score > 1"),
        db.schema,
    )
    groups = factorize_index_predicates(info, "users")
    chooser = RangeColumnChooser(
        stats_lookup=lambda table, col: db.stats.table(table).column(col)
    )
    # age > 79 matches ~1/60 of rows; score > 1 matches nearly all.
    assert chooser.choose(info, groups[0], "users") == "age"


def test_range_chooser_dataless_guidance(db):
    """Algorithm 5 line 6: dataless index costs pick the range column."""
    from repro.optimizer import CostEvaluator, analyze_query as aq

    evaluator = CostEvaluator(db)
    info = aq(
        parse("SELECT name FROM users WHERE age > 79 AND score > 1"),
        db.schema,
    )
    groups = factorize_index_predicates(info, "users")
    chooser = RangeColumnChooser(evaluator=evaluator)
    assert chooser.choose(info, groups[0], "users") == "age"


def test_chooser_returns_none_without_range(schema):
    info = info_for("SELECT name FROM users WHERE city = 'a'", schema)
    group = factorize_index_predicates(info, "users")[0]
    assert RangeColumnChooser().choose(info, group, "users") is None
