"""The Section 7 experiment: fifty hybrid ultrapeers on a live network.

Runs the partial-deployment simulation — hybrid LimeWire/PIERSearch
ultrapeers snoop Gnutella results, publish rare items (QRS scheme) into
their private DHT, and re-issue timed-out leaf queries through
PIERSearch — and prints the paper's headline metrics for both
query-processing strategies.

Run:  python examples/hybrid_deployment.py
"""

from repro.hybrid import DeploymentConfig, run_deployment


def describe(title: str, report) -> None:
    print(f"\n=== {title} ===")
    print(f"files published into the DHT : {report.files_published}")
    print(f"publish cost per file        : {report.publish_kb_per_file:.2f} KB")
    print(f"no-result queries, Gnutella  : {report.gnutella_no_result_fraction:.1%}")
    print(f"no-result queries, hybrid    : {report.hybrid_no_result_fraction:.1%}")
    print(f"reduction achieved           : {report.no_result_reduction:.1%}")
    print(f"potential (full rare index)  : {report.potential_reduction:.1%}")
    print(f"PIER first-result time       : {report.mean_pier_latency:.1f} s")
    print(f"PIER per-query bandwidth     : {report.mean_pier_query_kb:.2f} KB")
    print(f"hybrid latency (rare queries): {report.mean_hybrid_latency_rare:.1f} s")


def main() -> None:
    base = DeploymentConfig(
        num_ultrapeers=800,
        num_leaves=3200,
        num_hybrid=50,
        num_items=1200,
        num_background_queries=500,
        num_test_queries=300,
        seed=2004,
    )
    print(
        f"deploying {base.num_hybrid} hybrid ultrapeers into a "
        f"{base.num_ultrapeers + base.num_leaves}-node Gnutella network..."
    )
    shj_report = run_deployment(base)
    describe("distributed join (Figure 2 plans)", shj_report)

    from dataclasses import replace

    cache_report = run_deployment(replace(base, inverted_cache=True))
    describe("InvertedCache (Figure 3 plans)", cache_report)

    print(
        "\npaper reference: 3.5/4.0 KB per published file, 12/10 s PIER "
        "first result, ~18% fewer no-result queries (66% potential)."
    )


if __name__ == "__main__":
    main()
