"""The traced passes: host self-time by layer, and sim time by phase.

End-to-end numbers are taken with tracing off. The per-layer numbers come
from separate passes over the same world, so each pass's cost is itself a
metric: ``trace.profile_overhead`` and ``obs.trace_overhead`` are this
pass's host time over the untraced repeat's.
"""

from __future__ import annotations

import cProfile
import pstats

from repro.obs import Tracer

from bench.reducers import LAYERS, LayerProfile, attribute_layers


def profile_layers(profile: cProfile.Profile, ops: int) -> dict[str, float]:
    """``<layer>.host_share`` and ``<layer>.calls_per_op`` from one
    profiled drain."""
    layers: LayerProfile = attribute_layers(pstats.Stats(profile).stats)
    metrics = {"trace.share_sum": layers.share_sum}
    for layer in LAYERS:
        metrics[f"{layer}.host_share"] = layers.share(layer)
        metrics[f"{layer}.calls_per_op"] = layers.calls.get(layer, 0) / ops
    return metrics


def span_phases(tracer: Tracer, ops: int) -> dict[str, float]:
    """Mean virtual seconds per PIER-answered query, by phase.

    Read off the ``hybrid.race -> requery.attempt -> pier.dataflow ->
    first_answer`` span trees: the flood wait runs from submission to the
    first re-query attempt, the walk from there to the start of the
    dataflow that answered, the dataflow from its start to its first
    answer. The three telescope to the query's PIER first-result latency;
    first-to-complete is what the pipeline still spent after the race was
    already won.
    """
    waits, walks, flows, tails = [], [], [], []
    for race in tracer.roots:
        if race.name != "hybrid.race":
            continue
        attempts = [span for span in race.children if span.name == "requery.attempt"]
        for attempt in attempts:
            flow = next((s for s in attempt.children if s.name == "pier.dataflow"), None)
            first = flow and next(
                (s for s in flow.children if s.name == "first_answer"), None
            )
            if first is None:
                continue
            waits.append(attempts[0].start - race.start)
            walks.append(flow.start - attempts[0].start)
            flows.append(first.start - flow.start)
            tails.append((flow.end if flow.end is not None else first.start) - first.start)
            break

    def mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    return {
        "hybrid.sim_flood_wait_s": mean(waits),
        "dht.sim_walk_s": mean(walks),
        "pier.sim_dataflow_s": mean(flows),
        "pier.sim_first_to_complete_s": mean(tails),
        "obs.spans_per_op": len(tracer.spans) / ops,
    }
