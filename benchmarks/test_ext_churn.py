"""Bench ext-churn: DHT lookup success/latency under churn."""

from repro.experiments import ext_churn


def test_ext_churn(benchmark, scale):
    result = benchmark(ext_churn.run, scale, 64, 30)
    rows = {row[0]: row for row in result.rows}
    clean = rows[0.0]
    worst = rows[max(rows)]
    # No churn: everything succeeds.
    assert clean[1] > 95.0
    # Stale tables hurt latency and/or success at heavy churn...
    assert worst[2] >= clean[2] or worst[1] < clean[1]
    # ...and stabilization restores success close to perfect.
    assert worst[4] > 90.0
