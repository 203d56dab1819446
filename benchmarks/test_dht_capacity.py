"""DHT capacity pin: a 300k-peer ring with routed lookups under 1 GiB.

The million-peer capacity claim rests on :class:`DhtNetwork`: an idle
peer is its id in the sorted ring plus a join-order cell, and a node is
built only when a peer routes. This gate builds a 300k-peer ring, routes
lookups across it so a realistic share of peers build their routing
tables, and holds peak RSS and ring bytes per peer to hard ceilings.

Slow-marked via the benchmarks conftest; CI runs it in the capacity step
(see .github/workflows/ci.yml).
"""

import os
import subprocess
import sys
from pathlib import Path

#: peak-RSS ceiling for the 300k-peer smoke: an idle peer is its id in the
#: sorted ring plus a join-order cell, ~65 B/peer (~19 MB of ring state at
#: 300k with no node built; the smoke peaks at ~82 MB once its lookups
#: have built ~20k routed nodes) plus interpreter baseline; 1 GiB is an
#: order-of-magnitude backstop that still fails fast if eager routing or
#: unslotted nodes sneak back in (which cost several GiB at this scale).
RSS_CEILING_BYTES = 1 << 30

#: ring-state ceiling per peer, routed nodes included
BYTES_PER_PEER_MAX = 1024.0

LOOKUPS = 2000

_RSS_SMOKE_SCRIPT = f"""
import random, resource
from repro.common.ids import KEY_SPACE
from repro.dht.network import DhtNetwork
from repro.dht.ring import bytes_per_peer

network = DhtNetwork(rng=3)
network.populate(300_000)
idle = bytes_per_peer(network)
keys = random.Random(3)
owners = set()
for _ in range({LOOKUPS}):
    result = network.lookup(keys.randrange(KEY_SPACE))
    owners.add(result.owner)
routed = bytes_per_peer(network)
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
print(peak, idle, routed, len(owners))
"""


def test_300k_peer_smoke_stays_under_rss_ceiling():
    """Hard memory gate: building a 300k-peer DHT *and* routing lookups
    across it must keep peak RSS under 1 GiB.

    Runs in a fresh interpreter so ``ru_maxrss`` measures exactly this
    workload (the counter is a process-lifetime high-water mark and
    would otherwise inherit whatever earlier tests peaked at).
    """
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", _RSS_SMOKE_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert result.returncode == 0, f"smoke crashed:\n{result.stderr}"
    peak_bytes, idle, routed, owners = result.stdout.split()
    # the lookups spread over the ring and built routed nodes on the way
    assert int(owners) > LOOKUPS * 0.9
    assert float(routed) > float(idle)
    assert float(routed) <= BYTES_PER_PEER_MAX, (
        f"ring state costs {float(routed):.0f} B/peer, ceiling {BYTES_PER_PEER_MAX:.0f}"
    )
    assert int(peak_bytes) <= RSS_CEILING_BYTES, (
        f"peak RSS {int(peak_bytes) / (1 << 20):.0f} MiB exceeds the "
        f"{RSS_CEILING_BYTES / (1 << 20):.0f} MiB ceiling"
    )
