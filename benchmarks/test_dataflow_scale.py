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
:func:`repro.experiments.ext_obs.build_dataflow_scale` — the same
construction the observability overhead gate traces.
"""

from repro.experiments.ext_obs import build_dataflow_scale

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


def test_route_cache_does_real_work():
    """Without churn every query completes, and the route cache hits more
    than it misses: walks, plan legs and Item fetches repeat their
    routes."""
    engine, dht, _ = _build_and_run(num_queries=500, churn=False)
    assert engine.completed == 500 and engine.inflight == 0
    assert dht.route_cache_hits > dht.route_cache_misses


def test_scenario_is_seeded():
    """Two builds of the scenario drain to the same races: every outcome
    and the kernel's event count agree."""
    runs = []
    for _ in range(2):
        sim, engine, _, _ = build_dataflow_scale(200, churn=True)
        sim.run()
        runs.append((sim.processed, [race.outcome for race in engine.races]))
    assert runs[0] == runs[1]
