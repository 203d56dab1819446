"""Figure 10: publishing overhead (% items published) vs replica threshold.

With Perfect knowledge, publishing all items with R <= threshold:
the paper reports 23% of items published at threshold 1, with
diminishing increases beyond.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, PaperScale, PAPER_SCALE, get_library
from repro.model.tradeoff import publishing_fraction

#: the largest replica threshold swept
MAX_THRESHOLD = 20


def run(scale: PaperScale = PAPER_SCALE) -> ExperimentResult:
    replication = get_library(scale).replica_distribution()
    rows = []
    for threshold in range(0, MAX_THRESHOLD + 1):
        published = {
            name for name, count in replication.items() if count <= threshold
        }
        rows.append((threshold, 100.0 * publishing_fraction(replication, published)))
    return ExperimentResult(
        experiment_id="fig10",
        title="Publishing overhead (% items) vs replica threshold",
        columns=["replica_threshold", "pct_items_published"],
        rows=rows,
        notes="paper: 23% of items at threshold 1; growth tapers beyond",
    )
