"""Figure 14: scheme comparison on average Query Distinct Recall."""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, PaperScale, PAPER_SCALE
from repro.experiments.fig13_schemes_qr import run_schemes


def run(scale: PaperScale = PAPER_SCALE) -> ExperimentResult:
    return run_schemes(scale, "qdr")
