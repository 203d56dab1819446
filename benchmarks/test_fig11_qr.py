"""Bench fig11: average QR vs replica threshold."""

from repro.experiments import fig11_qr


def test_fig11(benchmark, scale):
    result = benchmark(fig11_qr.run, scale)
    base, one = result.rows[0], result.rows[1]
    for column in (1, 2, 3):
        assert one[column] > base[column] + 10.0

