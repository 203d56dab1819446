"""Bench the cost-based optimizer: the strategy sweep at small scale.

Runs the ext-optimizer selectivity x Zipf x keyword-count grid (every
scenario replayed under all four strategies, unbatched and batched),
records the sweep and holds the record byte-equal to the committed
``BENCH_optimizer.json`` at the repository root, and pins the
qualitative shape the optimizer exists for:

* answer sets are identical across strategies on every replayed query
  (enforced inside the sweep itself — it raises on divergence);
* on at least one selective multi-keyword scenario, a join rewrite
  (semi-join or Bloom join) beats the DISTRIBUTED_JOIN baseline on query
  bandwidth by >= 50%;
* the cost model's pick is never worse than the distributed join it
  replaces, on any scenario.

``test_optimizer_smoke`` is the single-scenario CI smoke variant.
"""

from pathlib import Path

import pytest

from repro.experiments import ext_optimizer
from repro.experiments.common import SMALL_SCALE

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_optimizer.json"


@pytest.fixture(scope="module")
def sweep():
    return ext_optimizer.run(SMALL_SCALE)


def _by_scenario(result):
    grouped = {}
    for row in result.rows:
        alpha, scenario, keywords, strategy = row[0], row[1], row[2], row[3]
        grouped.setdefault((alpha, scenario), {})[strategy] = {
            "keywords": keywords,
            "kb": row[4],
            "reduction": row[5],
            "entries": row[6],
            "picked": row[9] == "<-",
        }
    return grouped


def test_rewrite_beats_distributed_join_by_half(sweep):
    grouped = _by_scenario(sweep)
    big_wins = [
        key
        for key, strategies in grouped.items()
        if strategies["distributed_join"]["keywords"] >= 2
        and max(
            strategies["semi_join"]["reduction"],
            strategies["bloom_join"]["reduction"],
        )
        >= 50.0
    ]
    assert big_wins, "no selective scenario saved >=50% query bandwidth"


def test_optimizer_pick_never_loses_to_distributed_join(sweep):
    for (alpha, scenario), strategies in _by_scenario(sweep).items():
        picked = [s for s, row in strategies.items() if row["picked"]]
        assert len(picked) == 1, f"{scenario}: expected exactly one pick"
        assert (
            strategies[picked[0]]["kb"]
            <= strategies["distributed_join"]["kb"] * 1.001
        ), f"{alpha}/{scenario}: pick {picked[0]} costs more than the baseline"


def test_bench_artifact_recorded(sweep, tmp_path):
    """The sweep is a pure function of the code: recording it gives the
    committed artifact byte for byte. A change that moves a row
    re-records it with ``python -m repro.experiments.ext_optimizer``."""
    recorded = ext_optimizer.record(tmp_path / "BENCH_optimizer.json", sweep)
    assert recorded.read_text() == ARTIFACT.read_text()


def test_optimizer_smoke(benchmark, monkeypatch):
    """CI smoke: one alpha, one repeat — the whole pipeline end to end."""
    monkeypatch.setattr(ext_optimizer, "ZIPF_ALPHAS", (1.1,))
    monkeypatch.setattr(ext_optimizer, "REPEATS", 1)
    result = benchmark(ext_optimizer.run, SMALL_SCALE)
    strategies = {row[3] for row in result.rows}
    assert strategies == {
        "distributed_join", "semi_join", "bloom_join", "inverted_cache"
    }
    reductions = [
        row[5] for row in result.rows if row[3] in ("semi_join", "bloom_join")
    ]
    assert max(reductions) >= 50.0
