"""DHT lookups under churn — why the paper runs PIER over Bamboo.

Walks the hop-by-hop DHT lookup every query workload uses
(``DhtNetwork.iter_lookup``) over un-stabilized routing tables: lookups
pay per-hop latency, silently failed nodes cost a timeout and a retry
through a live successor, and a stabilization round repairs the overlay.
Prints success rate, mean latency and retries for increasing failure
fractions.

Run:  python examples/churn_resilience.py
"""

from repro.experiments.common import SMALL_SCALE
from repro.experiments.ext_churn import run


def main() -> None:
    result = run(SMALL_SCALE, num_nodes=128, lookups_per_point=80)
    print(result.format_table())
    print(
        "\nReading: with stale routing tables every failed hop costs a "
        "timeout, so latency climbs with churn; after one stabilization "
        "round the ring heals and success returns to ~100% — the behaviour "
        "PIER relies on from Bamboo."
    )


if __name__ == "__main__":
    main()
