"""Recommendation / explanation record tests."""

from repro.catalog import Index
from repro.core import RankedCandidate, Recommendation, format_bytes


def rec(benefit=10.0, maintenance=2.0, size=1 << 20):
    return RankedCandidate(
        index=Index("t", ("a", "b")),
        benefit=benefit,
        maintenance=maintenance,
        size_bytes=size,
        benefiting_queries=[("q1", 8.0), ("q2", 2.0)],
    )


def test_format_bytes_units():
    assert format_bytes(512) == "512 B"
    assert format_bytes(2048) == "2.00 KiB"
    assert format_bytes(3 << 20) == "3.00 MiB"
    assert format_bytes(5 << 30) == "5.00 GiB"


def test_index_recommendation_utility():
    r = rec()
    assert r.utility == 8.0


def test_explanation_mentions_ddl_and_metrics():
    text = rec().explanation()
    assert "CREATE INDEX idx_t_a_b ON t (a, b)" in text
    assert "expected gain" in text
    assert "maintenance overhead" in text
    assert "q1" in text


def test_recommendation_aggregates():
    recommendation = Recommendation(
        created=[rec(), rec(benefit=5.0)],
        budget_bytes=10 << 20,
        cost_before=100.0,
        cost_after=60.0,
    )
    assert len(recommendation.indexes) == 2
    assert recommendation.total_size_bytes == 2 << 20
    assert recommendation.improvement == 0.4


def test_recommendation_improvement_guards_zero_base():
    recommendation = Recommendation(cost_before=0.0, cost_after=0.0)
    assert recommendation.improvement == 0.0


def test_summary_reports_improvement():
    recommendation = Recommendation(
        created=[rec()],
        budget_bytes=10 << 20,
        cost_before=100.0,
        cost_after=60.0,
    )
    text = recommendation.summary()
    assert "-40.0%" in text
