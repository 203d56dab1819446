"""Bench ext-horizon: search-horizon vs system-load sweep (future work)."""

from repro.experiments import ext_horizon_load


def test_ext_horizon_load(benchmark, scale):
    result = benchmark(ext_horizon_load.run, scale)
    messages = result.column("messages_per_query")
    coverage = result.column("ultrapeer_coverage_pct")
    assert messages == sorted(messages)
    assert coverage == sorted(coverage)
    # Superlinear cost: message growth outpaces coverage growth at depth.
    first_ratio = messages[1] / max(coverage[1], 1e-9)
    last_ratio = messages[-1] / max(coverage[-1], 1e-9)
    assert last_ratio > first_ratio
    # Reaching most of the overlay by flooding costs orders of magnitude
    # more than one DHT query.
    assert result.rows[-1][4] > 50
