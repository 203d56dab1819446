"""After churn, no store holds a row twice: the benchmark's churn worlds.

``rare_join_churn`` (``bench/workloads.py``) publishes its corpus at
replication 2 and joins, leaves and crashes nodes while its queries run.
A handoff stores each row on the heir under the row's own dedup handle,
so an heir that holds the row already (a successor copy, or an equal
republished row) stores nothing for it. This drains the workload's eight
``--quick`` worlds at seed 1 and holds every store to that: no two values
under one key are equal.

Run with the repository root on ``sys.path`` (``python -m pytest`` does).
"""

from __future__ import annotations

from bench.workloads import WORKLOADS

SEED = 1


def _hashable(value):
    """A stored value as a set member: a published row by its items."""
    return tuple(sorted(value.items())) if isinstance(value, dict) else value


def test_no_key_holds_a_duplicate_row_after_churn():
    workload = WORKLOADS["rare_join_churn"](True)
    duplicates = {}
    for index in range(workload.worlds_per_run):
        world = workload.build(SEED, index, None)
        world.drain()
        # Churn ran and handed rows off, so the check below is not vacuous.
        assert world.dht.meter.by_category["dht.handoff"].messages > 0
        for node_id, key, values in world.dht.stored_items():
            distinct = len({_hashable(value) for value in values})
            if distinct != len(values):
                duplicates[(index, node_id, key)] = len(values) - distinct
    assert not duplicates, (
        f"{sum(duplicates.values())} duplicate rows under {len(duplicates)} "
        f"(world, node, key)s, first {next(iter(duplicates), None)}"
    )
