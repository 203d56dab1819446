"""Experiment reproductions: one module per paper figure/claim.

Every module exposes ``run(scale) -> ExperimentResult``; the runner
(:mod:`repro.experiments.runner`) executes all of them and prints the
tables. The module names carry the figure or section they reproduce
(``fig04``–``fig15``, ``sec4``/``sec5``/``sec7``; ``ext_*`` go beyond the
paper), as README.md's architecture map lists.
"""

from repro.experiments.common import (
    ExperimentResult,
    PaperScale,
    SMALL_SCALE,
    PAPER_SCALE,
    get_campaign,
    get_library,
    get_network,
    get_workload,
)

__all__ = [
    "ExperimentResult",
    "PaperScale",
    "SMALL_SCALE",
    "PAPER_SCALE",
    "get_campaign",
    "get_library",
    "get_network",
    "get_workload",
]
