"""Figure 11: average Query Recall vs replica threshold (trace-driven).

Hybrid recall with the Perfect publishing scheme: Gnutella contributes
the horizon fraction of every unpublished item's replicas; the DHT
contributes every replica of published items.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    PaperScale,
    PAPER_SCALE,
    get_campaign,
    get_library,
)
from repro.model.analytical import SystemParameters
from repro.model.tradeoff import TraceModel

HORIZONS = (0.05, 0.15, 0.30)
#: the largest replica threshold swept (Figures 11 and 12)
MAX_THRESHOLD = 10


def build_trace_model(scale: PaperScale) -> TraceModel:
    """The shared trace-driven model used by Figures 11-15."""
    library = get_library(scale)
    campaign = get_campaign(scale)
    replication = library.replica_distribution()
    n = scale.num_ultrapeers + scale.num_leaves
    params = SystemParameters(n=n, n_horizon=int(round(0.05 * n)))
    return TraceModel.from_campaign(campaign, replication, params)


def run(scale: PaperScale = PAPER_SCALE) -> ExperimentResult:
    model = build_trace_model(scale)
    sweeps = model.sweep_thresholds(list(range(0, MAX_THRESHOLD + 1)), list(HORIZONS))
    rows = []
    for threshold in range(0, MAX_THRESHOLD + 1):
        row = [threshold]
        for horizon in HORIZONS:
            row.append(100.0 * sweeps[horizon][threshold][2])
        rows.append(tuple(row))
    return ExperimentResult(
        experiment_id="fig11",
        title="Average Query Recall vs replica threshold",
        columns=["replica_threshold"] + [f"horizon_{int(h*100)}pct" for h in HORIZONS],
        rows=rows,
        notes="paper: threshold 1 lifts QR to 47/52/61%; >64% everywhere at 2",
    )
