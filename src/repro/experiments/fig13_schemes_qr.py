"""Figures 13 (QR) and 14 (QDR): rare-item scheme comparison.

Compares Perfect, SAM(15%), TPF, TF and Random under a publishing budget:
for each budget (fraction of items published), each scheme publishes the
items it estimates rarest, and we measure the hybrid's average recall at
a 5% search horizon — the paper's setting for Figure 13.

QRS is not compared, matching the paper (which omitted it for lack of
training queries): it runs only as the Section 7 deployment's publish
rule, :meth:`repro.hybrid.ultrapeer.HybridUltrapeer.observe_query_results`.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, PaperScale, PAPER_SCALE, get_library
from repro.experiments.fig11_qr import build_trace_model
from repro.hybrid.rare_items import (
    PerfectScheme,
    RandomScheme,
    RareItemScheme,
    SamplingScheme,
    TermFrequencyScheme,
    TermPairFrequencyScheme,
    published_for_budget,
)
from repro.model.tradeoff import average_qdr, average_qr

BUDGETS = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
HORIZON = 0.05


def build_schemes(scale: PaperScale) -> list[RareItemScheme]:
    """The Figure 13/14 scheme line-up, trained on the trace corpus."""
    replication = get_library(scale).replica_distribution()
    tf = TermFrequencyScheme()
    tf.observe_corpus(replication)
    tpf = TermPairFrequencyScheme()
    tpf.observe_corpus(replication)
    return [
        PerfectScheme(replication),
        SamplingScheme(replication, 0.15, rng=scale.seed + 13),
        tpf,
        tf,
        RandomScheme(rng=scale.seed + 14),
    ]


def run(
    scale: PaperScale = PAPER_SCALE, metric: str = "qr"
) -> ExperimentResult:
    if metric not in ("qr", "qdr"):
        raise ValueError(f"metric must be 'qr' or 'qdr', got {metric!r}")
    model = build_trace_model(scale)
    filenames = list(model.replication)
    schemes = build_schemes(scale)
    scores = {scheme.name: scheme.rarity_scores(filenames) for scheme in schemes}

    rows = []
    for budget in BUDGETS:
        row = [100.0 * budget]
        for scheme in schemes:
            published = published_for_budget(
                scores[scheme.name], filenames, budget, rng=scale.seed + 15
            )
            if metric == "qr":
                value = average_qr(model.queries, published, HORIZON)
            else:
                value = average_qdr(model.queries, published, model.params)
            row.append(100.0 * value)
        rows.append(tuple(row))
    figure = "fig13" if metric == "qr" else "fig14"
    metric_name = "Query Recall" if metric == "qr" else "Query Distinct Recall"
    return ExperimentResult(
        experiment_id=figure,
        title=f"Scheme comparison: average {metric_name} vs publishing budget",
        columns=["budget_pct"] + [scheme.name for scheme in schemes],
        rows=rows,
        notes=(
            "informed schemes beat Random in the low-budget regime the paper "
            "targets"
        ),
    )
