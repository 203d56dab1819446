"""The ``shard_ring`` workload's program under the sharded kernel.

``bench/shardprog.py`` is the one program :func:`repro.sim.shard.run_sharded`
still runs. Its claim is what the benchmark leans on: every draw is a pure
hash of ``(seed, chain, hop)``, so the merged outcome is the same at any
shard count and under either backend, and the 2-shard process run can be
checked against the 1-shard reference digest for digest. These tests hold
that claim in tier-1, at a size that runs in well under a second, and go
with the kernel when the benchmark retires ``shard_ring``.

Run with the repository root on ``sys.path`` (``python -m pytest`` does).
"""

from __future__ import annotations

import pytest

from bench.shardprog import (
    CROSS_DELAY,
    HEADER_BYTES,
    LOCAL_DELAY,
    LOOKAHEAD,
    PAYLOAD_BYTES,
    REGIONS,
    ChainScenario,
    merge_digests,
    mix,
    shard_of_peer,
)
from repro.sim.shard import run_sharded

SCENARIO = ChainScenario(seed=5, num_peers=1000, num_chains=40, hops_per_chain=30)


def _run(num_shards: int, backend: str = "round_robin"):
    return run_sharded(
        SCENARIO, num_shards, LOOKAHEAD, seed=SCENARIO.seed, backend=backend
    )


@pytest.fixture(scope="module")
def reference():
    """The 1-shard in-process run the benchmark checks against."""
    return _run(1)


def test_mix_is_a_pure_64_bit_hash():
    draws = [mix(7, chain, hop) for chain in range(20) for hop in range(20)]
    assert draws == [mix(7, chain, hop) for chain in range(20) for hop in range(20)]
    assert all(0 <= draw < 1 << 64 for draw in draws)
    assert len(set(draws)) == len(draws)
    assert mix(7, 0, 1) != mix(8, 0, 1)


@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_regions_map_onto_contiguous_shard_ranges(num_shards):
    """Each region lands on one shard, regions in order, and every shard
    owns at least one region."""
    shards = [shard_of_peer(region, num_shards) for region in range(REGIONS)]
    assert shards == sorted(shards)
    assert set(shards) == set(range(num_shards))
    for peer in range(64):
        assert shard_of_peer(peer, num_shards) == shards[peer % REGIONS]


def test_every_chain_ends_once_after_all_its_hops(reference):
    outcome = merge_digests(reference.digests())
    assert [chain for chain, _, _ in outcome.finished] == list(range(SCENARIO.num_chains))
    assert outcome.hops_sent == len(outcome.delays) == SCENARIO.total_hops
    assert reference.processed == SCENARIO.num_chains * (SCENARIO.hops_per_chain + 1)
    for delay in outcome.delays:
        assert LOCAL_DELAY[0] <= delay < LOCAL_DELAY[1] or (
            LOOKAHEAD <= CROSS_DELAY[0] <= delay < CROSS_DELAY[1]
        )
    low = HEADER_BYTES + PAYLOAD_BYTES[0]
    high = HEADER_BYTES + PAYLOAD_BYTES[1]
    assert low * outcome.hops_sent <= outcome.bytes_sent < high * outcome.hops_sent


@pytest.mark.parametrize("num_shards", [2, 4])
def test_merged_outcome_is_shard_count_invariant(reference, num_shards):
    sharded = _run(num_shards)
    assert merge_digests(sharded.digests()) == merge_digests(reference.digests())
    assert sharded.processed == reference.processed
    assert sharded.cross_messages > 0  # the chains really crossed shards
    assert len(set(map(repr, sharded.digests()))) == num_shards


def test_process_backend_reproduces_the_reference(reference):
    """The benchmark's pairing: two forked workers against one shard."""
    forked = _run(2, backend="process")
    assert merge_digests(forked.digests()) == merge_digests(reference.digests())
    assert forked.processed == reference.processed
    assert forked.cross_messages == _run(2).cross_messages
