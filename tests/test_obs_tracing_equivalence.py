"""Satellite invariants of the observability layer.

Two guarantees the tracing/metrics layer must keep forever:

* **Golden span tree** — the span tree of a small query (structure,
  attributes, virtual timestamps) is pinned in
  ``tests/golden/span_tree.json``. Instrumentation landing in new places
  or timestamps drifting shows up as a diff; regenerate with
  ``python tests/test_obs_tracing_equivalence.py``.
* **Observation is free** — running the full 4-strategy x 2-batching
  matrix with tracing and metrics enabled leaves every QueryStats field,
  every answer set, and the network's metered bytes byte-identical to an
  untraced run. The tracer consumes no randomness and never perturbs
  scheduling.
"""

import json
import math
from dataclasses import replace
from pathlib import Path

from repro.dht.network import DhtNetwork
from repro.hybrid.engine import RaceConfig
from repro.hybrid.world import build_world
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, validate_chrome_trace
from repro.pier.dataflow import DataflowExecutor
from repro.pier.query import JoinStrategy
from repro.sim.engine import Simulator

GOLDEN = Path(__file__).resolve().parent / "golden" / "span_tree.json"

#: the pinned query: two mid-popularity terms, both pinned strategies
#: exercise a join chain (stages, batches) without a huge golden file
PINNED_TERMS = ["montia", "klorena"]
PINNED_STRATEGIES = (JoinStrategy.DISTRIBUTED_JOIN, JoinStrategy.BLOOM_JOIN)


def traced_span_forest() -> dict:
    """Span forest of the pinned query, per strategy."""
    from test_dataflow_equivalence import build_world, plan_for

    forests: dict = {}
    for strategy in PINNED_STRATEGIES:
        rng, network, catalog = build_world(0)
        query_node = network.random_node_id()
        plan = replace(plan_for(catalog, strategy, PINNED_TERMS, query_node), batch_size=2)
        sim = Simulator()
        tracer = Tracer()
        tracer.bind_clock(lambda: sim.now)
        executor = DataflowExecutor(network, catalog, sim=sim, rng=0, tracer=tracer)
        executor.execute(plan)
        forests[f"{strategy.name}|pipelined"] = [root.tree() for root in tracer.roots]
    return forests


class TestGoldenSpanTree:
    def test_span_tree_matches_golden(self):
        expected = json.loads(GOLDEN.read_text())
        actual = json.loads(json.dumps(traced_span_forest(), sort_keys=True))
        assert actual == expected


def matrix_digest(traced: bool, seeds=(0, 3)) -> dict:
    """QueryStats + answers + meter totals for the full strategy matrix."""
    from test_dataflow_equivalence import build_world, plan_for, queries_for, result_key

    payload: dict = {}
    for seed in seeds:
        rng, network, catalog = build_world(seed)
        if traced:
            sim = Simulator()
            tracer = Tracer()
            tracer.bind_clock(lambda: sim.now)
            metrics = MetricsRegistry()
        else:
            sim, tracer, metrics = Simulator(), None, None
        unbatched = DataflowExecutor(network, catalog, sim=sim, tracer=tracer, metrics=metrics)
        batched = DataflowExecutor(
            network, catalog, sim=sim, rng=seed, tracer=tracer, metrics=metrics
        )
        for terms in queries_for(rng):
            query_node = network.random_node_id()
            for strategy in JoinStrategy:
                plan = plan_for(catalog, strategy, terms, query_node)
                for tag, executor, batch_size in (
                    ("unbatched", unbatched, None),
                    ("pipelined", batched, 2),
                ):
                    rows, stats = executor.execute(replace(plan, batch_size=batch_size))
                    name = f"s{seed}|{'+'.join(terms)}|{strategy.name}|{tag}"
                    payload[name] = {
                        "bytes": stats.bytes,
                        "messages": stats.messages,
                        "results": stats.results,
                        "entries": stats.posting_entries_shipped,
                        "answers": [list(answer) for answer in result_key(rows)],
                    }
        payload[f"s{seed}|meter"] = {
            "messages": network.meter.messages,
            "bytes": network.meter.bytes,
        }
    return payload


class TestObservationIsFree:
    def test_tracing_on_off_matrix_is_byte_identical(self):
        assert matrix_digest(traced=True) == matrix_digest(traced=False)

    def test_traced_run_exports_validly(self):
        from test_dataflow_equivalence import build_world, plan_for

        rng, network, catalog = build_world(0)
        sim = Simulator()
        tracer = Tracer()
        tracer.bind_clock(lambda: sim.now)
        metrics = MetricsRegistry()
        executor = DataflowExecutor(
            network, catalog, sim=sim, rng=0, tracer=tracer, metrics=metrics
        )
        plan = plan_for(
            catalog, JoinStrategy.SEMI_JOIN, PINNED_TERMS, network.random_node_id()
        )
        plan.batch_size = 2
        executor.execute(plan)
        validate_chrome_trace(tracer.to_chrome_trace())
        assert metrics.counter("dataflow.queries").value == 1


class CountingRegistry(MetricsRegistry):
    """A registry that logs every series lookup by name."""

    def __init__(self) -> None:
        super().__init__()
        self.lookups: list[str] = []

    def counter(self, name, labels=None):
        self.lookups.append(name)
        return super().counter(name, labels)


class TestMeteredDataflow:
    def test_completions_count_through_handles_resolved_once(self):
        from test_dataflow_equivalence import build_world, plan_for

        rng, network, catalog = build_world(0)
        metrics = CountingRegistry()
        executor = DataflowExecutor(network, catalog, sim=Simulator(), rng=0, metrics=metrics)
        query_node = network.random_node_id()
        plans = [
            replace(plan_for(catalog, strategy, PINNED_TERMS, query_node), batch_size=2)
            for strategy in JoinStrategy
        ]
        for plan in plans:
            executor.execute(plan)
        warm = len(metrics.lookups)
        for plan in plans:
            executor.execute(plan)
        # Every series the second pass touches was resolved by the first.
        assert len(metrics.lookups) == warm
        runs = 2 * len(plans)
        assert metrics.counter("dataflow.queries").value == runs
        by_strategy = {
            key: counter.value
            for key, counter in metrics.counters.items()
            if key.startswith("dataflow.strategy{")
        }
        assert len(by_strategy) == len(JoinStrategy)
        assert set(by_strategy.values()) == {2}


def run_hybrid_races(tracer: Tracer, metrics: MetricsRegistry, races: int = 6):
    """Drain ``races`` two-term races through one hybrid ultrapeer."""
    dht = DhtNetwork(rng=41)
    dht.populate(32)
    world = build_world(
        dht,
        [1],
        gnutella_timeout=5.0,
        race_config=RaceConfig(batch_size=2),
        rng=5,
        tracer=tracer,
        metrics=metrics,
    )
    for index in range(10):
        world.publisher.publish_file(
            f"montia klorena track{index:03d}.mp3", 1000, "10.0.0.1", 6346
        )
    (hybrid,) = world.hybrids
    engine = world.engine
    for _ in range(races):
        hybrid.handle_leaf_query_simulated(
            engine, ["montia", "klorena"], [math.inf], 3
        )
    world.sim.run()
    assert engine.completed == races
    return engine


class TestHeadSampledTraces:
    def test_sampled_races_keep_their_full_trees(self):
        full = Tracer()
        run_hybrid_races(full, MetricsRegistry())
        sampled = Tracer(sample_every=4)
        run_hybrid_races(sampled, MetricsRegistry())
        assert [root.tree() for root in sampled.roots] == [
            root.tree() for root in full.roots[::4]
        ]

    def test_unsampled_races_record_no_spans(self):
        tracer = Tracer(sample_every=4)
        run_hybrid_races(tracer, MetricsRegistry())
        assert [root.name for root in tracer.roots] == ["hybrid.race"] * 2

        def descendants(span):
            yield span
            for child in span.children:
                yield from descendants(child)

        recorded = [span for root in tracer.roots for span in descendants(root)]
        assert len(recorded) == len(tracer.spans)
        assert any(span.name == "exchange.batch" for span in recorded)


class TestHybridRaceSpanTree:
    def test_race_tree_nests_walks_and_dataflow(self):
        tracer = Tracer()
        (race,) = run_hybrid_races(tracer, MetricsRegistry(), races=1).races
        assert race.done
        (root,) = tracer.roots
        assert root.name == "hybrid.race" and root.finished
        walk = next(c for c in root.children if c.name == "requery.attempt")
        lookups = [c for c in walk.children if c.name == "dht.lookup"]
        assert lookups and all(span.attrs["hops"] >= 1 for span in lookups)
        dataflow = next(c for c in walk.children if c.name == "pier.dataflow")
        child_names = {c.name for c in dataflow.children}
        assert "exchange.batch" in child_names
        assert any(c.name == "stage.join" for c in dataflow.children)
        # The race span closed at the first answer; timestamps are virtual.
        assert root.end >= 5.0
        assert root.attrs["winner"] == "pier"
        validate_chrome_trace(tracer.to_chrome_trace())


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(traced_span_forest(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN}")
