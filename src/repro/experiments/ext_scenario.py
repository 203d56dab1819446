"""Extension: the adversarial hostile-run matrix with SLO gates.

Every scenario in :data:`repro.scenario.presets.HOSTILE_MATRIX` composes
one arrival process x churn pattern x workload shape into a seeded,
reproducible hostile run (see ``repro.scenario``): steady graceful
churn, a correlated regional failure, a network partition that heals,
a flash crowd against the shared result cache, a free-riding corpus,
and query-of-death five-way conjunctions. Each run is driven through
the virtual-time kernel and reduced to recall / latency / bandwidth
SLO measurements; the central hardening guarantee — every data loss
surfaces as an explicitly ``degraded`` answer, never as silent absence
— is gated as ``silent_loss <= 0`` on every scenario.

Scenario specs are self-contained (their own sizes and seeds), so the
experiment ``scale`` is accepted for runner compatibility but does not
alter the runs: the recorded numbers are bit-for-bit reproducible, and
``benchmarks/test_scenario_matrix.py`` re-runs the matrix live against
the committed artifact to prove it.

``python -m repro.experiments.ext_scenario`` records the matrix into
``BENCH_scenario.json`` at the repository root.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.common import ExperimentResult, PaperScale, PAPER_SCALE
from repro.scenario.engine import ScenarioReport, run_scenario
from repro.scenario.presets import HOSTILE_MATRIX, SCENARIOS
from repro.scenario.spec import MAX_SILENT_LOSS

COLUMNS = [
    "scenario",
    "seed",
    "schedule_digest",
    "queries",
    "recall",
    "coverage",
    "latency_p50",
    "latency_p95",
    "query_kb_mean",
    "silent_loss",
    "degraded_fraction",
    "cache_hit_rate",
    "abandoned",
    "route_retries",
    "passed",
]


def _row(report: ScenarioReport) -> list:
    return [
        report.name,
        report.seed,
        report.schedule_digest,
        report.queries,
        report.recall,
        report.coverage,
        report.latency_p50,
        report.latency_p95,
        report.query_kb_mean,
        report.silent_loss,
        report.degraded_fraction,
        report.cache_hit_rate,
        report.abandoned,
        report.route_retries,
        report.passed,
    ]


def run(
    scale: PaperScale = PAPER_SCALE,
    names: tuple[str, ...] = HOSTILE_MATRIX,
) -> ExperimentResult:
    rows = []
    for name in names:
        report = run_scenario(SCENARIOS[name])
        rows.append(_row(report))
    return ExperimentResult(
        experiment_id="ext-scenario",
        title="Adversarial scenarios: hostile-run matrix under SLO gates",
        columns=COLUMNS,
        rows=rows,
        notes=(
            "one row per hostile run; recall is the answered fraction of "
            "published-target rare queries, coverage the fraction of all "
            "rare queries (the gap is free-riding damage), silent_loss "
            "counts zero-result published-target queries that were NOT "
            "flagged degraded (gated to 0 everywhere), and passed means "
            "every SLO gate of the scenario held. Identical seeds "
            "reproduce every value bit-for-bit."
        ),
    )


def slo_bounds(names: tuple[str, ...] = HOSTILE_MATRIX) -> dict[str, dict]:
    """Per-scenario SLO bounds, as recorded into the artifact."""
    bounds: dict[str, dict] = {}
    for name in names:
        slo = SCENARIOS[name].slo
        bounds[name] = {
            "min_recall": slo.min_recall,
            "max_p95_latency": slo.max_p95_latency,
            "max_query_kb": slo.max_query_kb,
            "max_silent_loss": MAX_SILENT_LOSS,
            "max_degraded_fraction": slo.max_degraded_fraction,
            "min_cache_hit_rate": slo.min_cache_hit_rate,
        }
    return bounds


def record(path: str | Path, result: ExperimentResult) -> Path:
    """Persist ``result``, the hostile-run matrix at paper scale, as the
    bench artifact."""
    payload = {
        "experiment": result.experiment_id,
        "title": result.title,
        "scale": PAPER_SCALE.name,
        "columns": result.columns,
        "rows": [list(row) for row in result.rows],
        "bounds": slo_bounds(HOSTILE_MATRIX),
        "notes": result.notes,
    }
    target = Path(path)
    target.write_text(json.dumps(payload, indent=2) + "\n")
    return target


if __name__ == "__main__":
    recorded = record("BENCH_scenario.json", run(PAPER_SCALE))
    print(recorded.read_text())
