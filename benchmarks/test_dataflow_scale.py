"""Bench the streaming dataflow: 5k concurrent pipelined queries under churn.

Every leaf query races Gnutella against a *pipelined* DHT re-query: after
the hop-by-hop walk, posting-list tuple batches flow site-to-site as
simulator events and the race resolves at the first answer batch. The
whole batch of queries is submitted within a 48 s virtual window against
a 30 s timeout, so thousands of dataflows are simultaneously in flight
while churn (including non-stabilizing steps) removes nodes under them.

Pins at scale: liveness (every race resolves), pipelining (first answer
never later than pipeline completion, strictly earlier for a measurable
share), answer coverage, and throughput.

``test_dataflow_smoke`` is the single-iteration CI smoke variant.

The scenario itself (corpus, seeds, churn schedule, query mix) lives in
:func:`repro.experiments.ext_runtime.build_dataflow_scale` — the same
construction the ``ext-runtime`` experiment times for
``BENCH_runtime.json``, so the throughput pinned here and the recorded
runtime baseline always measure the same workload.
"""

from repro.experiments.ext_runtime import build_dataflow_scale

NUM_QUERIES = 5000


def _build_and_run(num_queries=NUM_QUERIES, churn=True):
    sim, engine, dht, process = build_dataflow_scale(num_queries, churn)
    sim.run()
    return engine, dht, process


def _check(engine, num_queries, min_peak):
    assert engine.completed == num_queries
    assert engine.inflight == 0
    assert engine.peak_inflight >= min_peak
    pier_answered = [
        race
        for race in engine.races
        if race.outcome.used_pier and race.outcome.pier_results > 0
    ]
    assert len(pier_answered) > num_queries // 4
    # Pipelining is real: completion never precedes the first answer, and
    # a measurable share of multi-batch joins answered strictly mid-join.
    for race in pier_answered:
        assert race.outcome.pier_latency <= race.outcome.pier_completion_latency + 1e-9
    strictly_earlier = [
        race
        for race in pier_answered
        if race.outcome.pier_latency < race.outcome.pier_completion_latency
    ]
    assert len(strictly_earlier) > len(pier_answered) // 4
    flood_answered = [race for race in engine.races if not race.outcome.used_pier]
    assert len(flood_answered) >= num_queries // 4


def test_dataflow_5k_concurrent_pipelined_queries_under_churn(benchmark):
    engine, dht, churn = benchmark(_build_and_run)
    _check(engine, NUM_QUERIES, min_peak=4000)
    assert churn.stats.leaves + churn.stats.failures >= 12
    assert engine.completed / engine.sim.now > 25.0


def test_dataflow_smoke():
    """One small iteration of the same pipeline (CI smoke)."""
    engine, dht, _ = _build_and_run(num_queries=250, churn=False)
    _check(engine, 250, min_peak=200)
