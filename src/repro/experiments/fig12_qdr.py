"""Figure 12: average Query Distinct Recall vs replica threshold.

:func:`run` is the trace-driven recall sweep. :func:`run_cdf` derives the
per-source latency CDF from the **event-driven race**
(:mod:`repro.hybrid.engine`), splitting queries by which source actually
delivered first in virtual time — the paper's claim that the hybrid keeps
Gnutella latency for popular queries while the DHT recovers the rare tail
shortly after the timeout.
"""

from __future__ import annotations

import math

from repro.experiments.common import ExperimentResult, PaperScale, PAPER_SCALE, quantile
from repro.experiments.fig07_latency import CDF_PERCENTILES, get_event_report
from repro.experiments.fig11_qr import HORIZONS, MAX_THRESHOLD, build_trace_model
from repro.hybrid.ultrapeer import DEFAULT_GNUTELLA_TIMEOUT


def run(scale: PaperScale = PAPER_SCALE) -> ExperimentResult:
    model = build_trace_model(scale)
    sweeps = model.sweep_thresholds(list(range(0, MAX_THRESHOLD + 1)), list(HORIZONS))
    rows = []
    for threshold in range(0, MAX_THRESHOLD + 1):
        row = [threshold]
        for horizon in HORIZONS:
            row.append(100.0 * sweeps[horizon][threshold][3])
        rows.append(tuple(row))
    return ExperimentResult(
        experiment_id="fig12",
        title="Average Query Distinct Recall vs replica threshold",
        columns=["replica_threshold"] + [f"horizon_{int(h*100)}pct" for h in HORIZONS],
        rows=rows,
        notes="paper: QDR ~93% at threshold 2, horizon 15%; higher than QR everywhere",
    )


def run_cdf(scale: PaperScale) -> ExperimentResult:
    """Latency CDF by race winner (flood vs DHT), from virtual-time races."""
    report = get_event_report(scale)
    flood_won: list[float] = []
    dht_won: list[float] = []
    for outcome in report.outcomes:
        latency = outcome.first_result_latency
        if math.isinf(latency):
            continue
        pier_delivered = outcome.used_pier and outcome.pier_results > 0
        if pier_delivered and (
            math.isinf(outcome.gnutella_latency)
            or outcome.pier_latency < outcome.gnutella_latency
        ):
            dht_won.append(latency)
        else:
            flood_won.append(latency)
    rows = [
        (
            percentile,
            quantile(flood_won, percentile / 100) if flood_won else float("nan"),
            quantile(dht_won, percentile / 100) if dht_won else float("nan"),
        )
        for percentile in CDF_PERCENTILES
    ]
    answered = len(flood_won) + len(dht_won)
    return ExperimentResult(
        experiment_id="fig12-cdf",
        title="First-result latency CDF by winning source (s)",
        columns=["percentile", "flood_won_s", "dht_won_s"],
        rows=rows,
        notes=(
            f"event-driven races: flooding won {len(flood_won)} and the DHT "
            f"won {len(dht_won)} of {answered} answered queries; rare "
            f"answers land just past the {DEFAULT_GNUTELLA_TIMEOUT:.0f}s "
            "timeout instead of never (DHT wins resolve at the first answer "
            "batch of the pipelined dataflow, not at full-join completion)"
        ),
    )
