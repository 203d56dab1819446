"""Figure 7: result-set size vs average first-result latency.

Reproduces the paper's headline latency asymmetry: ~73 s to the first
result for single-result queries, ~50 s for <=10 results, ~6 s for >150.

:func:`run` is the trace-replay analysis. :func:`run_cdf` instead derives
the first-result latency CDF from the **event-driven hybrid race**
(:mod:`repro.hybrid.engine`): leaf queries run as scheduled events in
virtual time, with churn striking the DHT mid-run, and each latency is
the virtual time at which the winning source actually delivered — not an
analytic hop sum.
"""

from __future__ import annotations

import math
from statistics import mean

from repro.experiments.common import (
    ExperimentResult,
    PaperScale,
    PAPER_SCALE,
    get_campaign,
    quantile,
)
from repro.hybrid.deployment import DeploymentConfig, DeploymentReport, run_deployment

BUCKETS = [(1, 1), (2, 5), (6, 10), (11, 25), (26, 50), (51, 150), (151, 10**9)]

CDF_PERCENTILES = (10, 25, 50, 75, 90, 95, 99)

_event_report_cache: dict[DeploymentConfig, DeploymentReport] = {}


def event_config(scale: PaperScale) -> DeploymentConfig:
    """Event-driven deployment sized from ``scale``, with mid-run churn."""
    return DeploymentConfig(
        num_ultrapeers=max(400, scale.num_ultrapeers // 2),
        num_leaves=max(1600, scale.num_leaves // 2),
        num_hybrid=50,
        num_items=max(500, scale.num_items // 2),
        num_background_queries=max(200, scale.num_queries),
        num_test_queries=max(300, 2 * scale.num_queries),
        seed=scale.seed + 70,
        churn_interval=25.0,
        churn_steps=8,
        churn_failure_fraction=0.3,
    )


def get_event_report(scale: PaperScale) -> DeploymentReport:
    """The shared event-driven run behind fig07-cdf and fig12-cdf.

    Keyed on the full derived config (not the scale name), so a modified
    scale with a reused name never returns another run's report.
    """
    config = event_config(scale)
    if config not in _event_report_cache:
        _event_report_cache[config] = run_deployment(config)
    return _event_report_cache[config]


def run(scale: PaperScale = PAPER_SCALE) -> ExperimentResult:
    campaign = get_campaign(scale)
    rows = []
    for low, high in BUCKETS:
        latencies = [
            replay.first_result_latency
            for replay in campaign.replays
            if low <= replay.single_results <= high
            and not math.isinf(replay.first_result_latency)
        ]
        if not latencies:
            continue
        label = f"{low}" if low == high else f"{low}-{high if high < 10**9 else '+'}"
        rows.append((label, len(latencies), mean(latencies)))
    return ExperimentResult(
        experiment_id="fig07",
        title="Result-set size vs average first-result latency (s)",
        columns=["result_size", "queries", "avg_first_result_latency_s"],
        rows=rows,
        notes="paper: 73 s at 1 result, ~50 s at <=10, ~6 s above 150",
    )


def run_cdf(scale: PaperScale) -> ExperimentResult:
    """First-result latency CDF from virtual-time races (event engine).

    Re-queries execute on the streaming dataflow, so each PIER-answered
    race carries two timestamps: when its *first answer batch* reached
    the query node (``pier_first_s`` — this is what wins the race) and
    when the join pipeline fully drained (``pier_complete_s``). The gap
    between the two columns is pipelining made visible: mid-join answers
    land strictly before full-join completion whenever the posting lists
    span more than one batch.
    """
    report = get_event_report(scale)
    hybrid = [
        outcome.first_result_latency
        for outcome in report.outcomes
        if not math.isinf(outcome.first_result_latency)
    ]
    gnutella_only = [
        outcome.gnutella_latency
        for outcome in report.outcomes
        if not math.isinf(outcome.gnutella_latency)
    ]
    pier_answered = [
        outcome
        for outcome in report.outcomes
        if outcome.used_pier and outcome.pier_results > 0 and not outcome.cache_hit
    ]
    pier_first = [outcome.pier_latency for outcome in pier_answered]
    pier_complete = [outcome.pier_completion_latency for outcome in pier_answered]
    rows = [
        (
            percentile,
            quantile(hybrid, percentile / 100) if hybrid else float("nan"),
            quantile(gnutella_only, percentile / 100) if gnutella_only else float("nan"),
            quantile(pier_first, percentile / 100) if pier_first else float("nan"),
            quantile(pier_complete, percentile / 100) if pier_complete else float("nan"),
        )
        for percentile in CDF_PERCENTILES
    ]
    return ExperimentResult(
        experiment_id="fig07-cdf",
        title="First-result latency CDF from the event-driven race (s)",
        columns=[
            "percentile",
            "hybrid_s",
            "gnutella_only_s",
            "pier_first_s",
            "pier_complete_s",
        ],
        rows=rows,
        notes=(
            f"simulated first-result times, churn mid-run; hybrid answers "
            f"{len(hybrid)}/{len(report.outcomes)} queries vs "
            f"{len(gnutella_only)} for flooding alone; "
            f"peak in-flight {report.peak_inflight}; pier_first < "
            "pier_complete is the pipelined dataflow answering mid-join"
        ),
    )
