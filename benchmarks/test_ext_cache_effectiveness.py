"""Bench ext-cache: result-cache hit rate and bandwidth saved vs Zipf skew."""

import pytest

from repro.experiments import ext_cache_effectiveness


def test_ext_cache_effectiveness(benchmark, scale):
    result = benchmark(ext_cache_effectiveness.run, scale)
    by_cell = {(row[0], row[1]): row for row in result.rows}
    columns = result.columns

    def cell(alpha, budget, name):
        return by_cell[(alpha, budget)][columns.index(name)]

    # A budgeted cache must yield a measurable query-bandwidth reduction
    # at Zipf-skewed load...
    assert cell(1.1, 128, "bandwidth_saved_pct") > 20.0
    assert cell(1.1, 32, "bandwidth_saved_pct") > 10.0
    # ...with zero recall loss for cached answers.
    assert all(row[columns.index("recall_delta")] == 0.0 for row in result.rows)
    # Heavier skew concentrates the popular mass, so hits rise with alpha
    # and with budget.
    assert cell(1.1, 128, "hit_rate_pct") >= cell(0.6, 128, "hit_rate_pct")
    assert cell(1.1, 128, "hit_rate_pct") >= cell(1.1, 32, "hit_rate_pct")
    # The uncached baseline spends more per query than any cached cell.
    assert cell(1.1, 0, "kb_per_query") > cell(1.1, 128, "kb_per_query")
