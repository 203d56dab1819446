"""Bench sec5: posting-list entries shipped by the distributed join,
including the smaller-list-first join-ordering ablation."""

import pytest

from repro.experiments import sec5_posting


@pytest.fixture(scope="module")
def corpus(scale):
    # Build (and cache) the fully indexed DHT corpus outside the timer.
    return sec5_posting.build_indexed_corpus(scale)


def test_sec5_posting(benchmark, scale, corpus):
    result = benchmark(sec5_posting.run, scale)
    rows = {row[0]: row[1] for row in result.rows}
    # Rare queries ship fewer entries than the average query (paper: ~7x).
    assert rows["mean entries shipped (<=10 results)"] < rows[
        "mean entries shipped (all queries)"
    ]
    # Ordering ablation: smallest-first ships no more than naive ordering.
    assert rows["mean entries, multi-term, smallest-first"] <= rows[
        "mean entries, multi-term, naive order"
    ]
