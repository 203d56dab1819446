"""CLI runner: reproduce every table and figure.

Usage::

    repro-experiments                  # run everything at paper scale
    repro-experiments --scale small    # quick pass
    repro-experiments --only fig05 fig07
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import common
from repro.experiments import (
    ext_cache_effectiveness,
    ext_churn,
    ext_dataflow,
    ext_horizon_load,
    ext_join,
    ext_optimizer,
    ext_scenario,
    fig04_replication,
    fig05_result_cdf,
    fig06_union_cdf,
    fig07_latency,
    fig08_flood_overhead,
    fig09_pf_threshold,
    fig10_publish_overhead,
    fig11_qr,
    fig12_qdr,
    fig13_schemes_qr,
    fig14_schemes_qdr,
    fig15_sam_sweep,
    sec4_summary,
    sec5_posting,
    sec7_deployment,
)

EXPERIMENTS = {
    "fig04": fig04_replication.run,
    "fig05": fig05_result_cdf.run,
    "fig06": fig06_union_cdf.run,
    "fig07": fig07_latency.run,
    "fig07-cdf": fig07_latency.run_cdf,
    "fig08": fig08_flood_overhead.run,
    "fig09": fig09_pf_threshold.run,
    "fig10": fig10_publish_overhead.run,
    "fig11": fig11_qr.run,
    "fig12": fig12_qdr.run,
    "fig12-cdf": fig12_qdr.run_cdf,
    "fig13": fig13_schemes_qr.run,
    "fig14": fig14_schemes_qdr.run,
    "fig15": fig15_sam_sweep.run,
    "sec4": sec4_summary.run,
    "sec5": sec5_posting.run,
    "sec7": sec7_deployment.run,
    "ext-horizon": ext_horizon_load.run,
    "ext-join": ext_join.run,
    "ext-churn": ext_churn.run,
    "ext-cache": ext_cache_effectiveness.run,
    "ext-dataflow": ext_dataflow.run,
    "ext-optimizer": ext_optimizer.run,
    "ext-scenario": ext_scenario.run,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale", choices=["paper", "small"], default="paper",
        help="experiment scale (default: paper)",
    )
    parser.add_argument(
        "--only", nargs="*", choices=sorted(EXPERIMENTS), default=None,
        help="run only the named experiments",
    )
    args = parser.parse_args(argv)
    scale = common.PAPER_SCALE if args.scale == "paper" else common.SMALL_SCALE
    names = args.only or sorted(EXPERIMENTS)
    for name in names:
        print(EXPERIMENTS[name](scale).format_table())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
