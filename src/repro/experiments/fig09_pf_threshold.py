"""Figure 9: PF_threshold vs replica threshold (analytical).

The lower bound on the probability any item is found in the hybrid
system, for search horizons of 5%, 15% and 30% of nodes.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, PaperScale, PAPER_SCALE
from repro.model.analytical import SystemParameters, pf_threshold

HORIZONS = (0.05, 0.15, 0.30)
#: the largest replica threshold swept
MAX_THRESHOLD = 20


def run(scale: PaperScale = PAPER_SCALE) -> ExperimentResult:
    n = scale.num_ultrapeers + scale.num_leaves
    rows = []
    for threshold in range(0, MAX_THRESHOLD + 1):
        row = [threshold]
        for horizon in HORIZONS:
            params = SystemParameters(n=n, n_horizon=int(round(horizon * n)))
            row.append(pf_threshold(threshold, params))
        rows.append(tuple(row))
    return ExperimentResult(
        experiment_id="fig09",
        title="PF_threshold vs replica threshold",
        columns=["replica_threshold"] + [f"horizon_{int(h*100)}pct" for h in HORIZONS],
        rows=rows,
        notes="curves start at the horizon fraction and rise with diminishing returns",
    )
