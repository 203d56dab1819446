"""The ``shard_ring`` workload's program: message chains over a peer ring.

``CHAINS`` chains each hop peer to peer ``hops`` times. Every draw — the
next peer, the hop delay, the message size — is a pure integer hash of
``(seed, chain, hop)``, so the event stream is the same at any shard
count: sharding may change where an event runs, never what it is. That
is what lets the benchmark check the 2-shard process run against a
1-shard reference, digest for digest.

Peers fall into ``REGIONS`` latency regions; a hop inside a region takes
2-8 ms, a hop across regions 50-80 ms — never less than ``LOOKAHEAD``,
the conservative window of :func:`repro.sim.shard.run_sharded`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.shard import ShardContext, ShardProgram

REGIONS = 4
LOOKAHEAD = 0.050
LOCAL_DELAY = (0.002, 0.008)
CROSS_DELAY = (0.050, 0.080)
#: modelled wire size of one chain message: a header plus a drawn payload
HEADER_BYTES = 40
PAYLOAD_BYTES = (64, 1088)

_MASK = (1 << 64) - 1


def mix(seed: int, chain: int, hop: int) -> int:
    """SplitMix64-style hash: the program's only source of randomness."""
    x = (
        seed * 0x9E3779B97F4A7C15
        + chain * 0xBF58476D1CE4E5B9
        + hop * 0x94D049BB133111EB
    ) & _MASK
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def shard_of_peer(peer: int, num_shards: int) -> int:
    """Regions map onto shards by contiguous ranges (num_shards <= REGIONS)."""
    return (peer % REGIONS) * num_shards // REGIONS


@dataclass(frozen=True)
class ChainScenario:
    """Picklable description of one chain run (the factory's only state)."""

    seed: int
    num_peers: int
    num_chains: int
    hops_per_chain: int

    @property
    def total_hops(self) -> int:
        return self.num_chains * self.hops_per_chain

    def __call__(self, shard_id: int, num_shards: int, rng) -> "ChainProgram":
        """The ``run_sharded`` factory: one program per shard."""
        return ChainProgram(shard_id, num_shards, self)


class ChainProgram(ShardProgram):
    """One shard's share of the chains.

    The digest carries, for chains that ended here, ``(chain, checksum,
    end_time)`` — the checksum folds in every visited peer, so it pins the
    whole path — and, for hops sent from here, their count, modelled
    bytes, and delays.
    """

    def __init__(self, shard_id: int, num_shards: int, scenario: ChainScenario):
        self.shard_id = shard_id
        self.num_shards = num_shards
        self.scenario = scenario
        self.finished: list[tuple[int, int, float]] = []
        self.hops_sent = 0
        self.bytes_sent = 0
        self.delays: list[float] = []

    def start(self, ctx: ShardContext) -> None:
        scenario = self.scenario
        for chain in range(scenario.num_chains):
            origin = mix(scenario.seed, chain, 0) % scenario.num_peers
            if shard_of_peer(origin, self.num_shards) != self.shard_id:
                continue
            # stagger starts so chains overlap rather than phase-lock
            ctx.schedule(
                0.001 * (chain % 97),
                lambda chain=chain, origin=origin: self._hop(
                    ctx, chain, origin, scenario.hops_per_chain, chain & _MASK
                ),
            )

    def _hop(
        self, ctx: ShardContext, chain: int, peer: int, hops_left: int, checksum: int
    ) -> None:
        checksum = (checksum * 1_000_003 + peer + 1) & _MASK
        if hops_left <= 0:
            self.finished.append((chain, checksum, ctx.now))
            return
        scenario = self.scenario
        draw = mix(scenario.seed, chain, scenario.hops_per_chain - hops_left + 1)
        next_peer = draw % scenario.num_peers
        low, high = (
            LOCAL_DELAY if next_peer % REGIONS == peer % REGIONS else CROSS_DELAY
        )
        delay = low + (high - low) * ((draw >> 32) / (1 << 32))
        span = PAYLOAD_BYTES[1] - PAYLOAD_BYTES[0]
        self.hops_sent += 1
        self.bytes_sent += HEADER_BYTES + PAYLOAD_BYTES[0] + (draw >> 16) % span
        self.delays.append(delay)
        ctx.send(
            shard_of_peer(next_peer, self.num_shards),
            delay,
            (chain, next_peer, hops_left - 1, checksum),
        )

    def on_message(self, ctx: ShardContext, payload) -> None:
        chain, peer, hops_left, checksum = payload
        self._hop(ctx, chain, peer, hops_left, checksum)

    def digest(self) -> tuple:
        return (self.finished, self.hops_sent, self.bytes_sent, self.delays)


@dataclass(frozen=True)
class ChainOutcome:
    """Per-shard digests merged into one shard-count-invariant result."""

    finished: tuple[tuple[int, int, float], ...]
    hops_sent: int
    bytes_sent: int
    delays: tuple[float, ...]


def merge_digests(digests) -> ChainOutcome:
    """Merge shard digests; every field is order-independent once sorted."""
    finished: list[tuple[int, int, float]] = []
    delays: list[float] = []
    hops = byte_count = 0
    for shard_finished, shard_hops, shard_bytes, shard_delays in digests:
        finished.extend(shard_finished)
        hops += shard_hops
        byte_count += shard_bytes
        delays.extend(shard_delays)
    return ChainOutcome(tuple(sorted(finished)), hops, byte_count, tuple(sorted(delays)))
