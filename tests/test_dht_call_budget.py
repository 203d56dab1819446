"""Guard against sliding back to a scan per DHT hop, or a put body per
tuple, on the write path.

A published file costs one routed put per Item tuple and per keyword
posting, and between churn steps those puts come from too many distinct
``(origin, owner)`` pairs for the route cache to absorb, so the publisher
is as fast as a route-cache *miss*: a handful of ``DhtNode.route`` steps,
each one bisect into the node's compiled table, over finger tables that
cost O(log N) owner lookups to derive. Around the routes, a file is one
``DhtNetwork.put_many`` call: no lookup result, typed message, delivery
record or meter charge per tuple. None of that shows in a path, an owner
or a byte count, so a regression to a per-hop interval test plus a
linear scan of fingers and successors (or to 160 bisects per finger
table, or to a routed put per tuple) would pass every other test. This
one counts *function calls* — deterministic, no timing — over a small
publish-under-churn world and holds them under a recorded ceiling, and
pins the route cache's hit and miss counts so the saving cannot come
from caching differently.
"""

import cProfile
import pstats
import random

from repro.common.zipf import ZipfSampler
from repro.dht.churn import ChurnProcess
from repro.dht.network import DhtNetwork
from repro.pier.catalog import Catalog
from repro.piersearch.publisher import Publisher

NUM_FILES = 500
CHURN_EVERY = 100
VOCABULARY = 600
#: Primitive calls per published file (built-in calls included). Recorded
#: on CPython 3.11 when a file became one compiled plan and one batch put:
#: 559 per file, against 656 on the put-per-tuple path it replaced (the
#: same world, the commit before) and 1,743 on the scan-per-hop path
#: before that; 540 since a put skips the replica-set probe while no key
#: has one registered; 473 (468 on 3.10, 469 on 3.12) since a put reads
#: each owner's targets once per route-cache epoch, draws its origin from
#: the ring's list and resolves a keyword's key through the handle's
#: memo. Nearly every put here is a route-cache miss, so most of what is
#: left is the walk; the ceiling sits just under the count of the path
#: each step replaced (640 under the per-tuple path's 656, now 530 under
#: 540), so a return to it fails.
CALLS_PER_FILE_CEILING = 530
#: The route cache's counters for this world, identical before and after
#: the routing step changed: the step made a miss cheap, it did not touch
#: what counts as one. (131, 2582) while churn drew its victims and
#: joiner ids from the network's RNG, which each put's origin draw also
#: advances; churn's own stream removes and adds other nodes.
ROUTE_CACHE_HITS = 119
ROUTE_CACHE_MISSES = 2594


def test_publishing_under_churn_stays_one_bisect_per_hop():
    network = DhtNetwork(rng=7, replication=2)
    network.populate(128)
    publisher = Publisher(network, Catalog(network))
    churn = ChurnProcess(network, rng=8, failure_fraction=0.4)
    rng = random.Random(9)
    words = [f"w{index:03d}x" for index in range(VOCABULARY)]
    sampler = ZipfSampler(VOCABULARY, alpha=0.9, rng=rng)
    files = []
    for index in range(NUM_FILES):
        terms = {words[sampler.sample() - 1] for _ in range(rng.randint(2, 5))}
        files.append((" ".join(sorted(terms)) + f" take{index:05d}.mp3", 1000 + index))

    profile = cProfile.Profile()
    profile.enable()
    receipts = []
    for index, (filename, filesize) in enumerate(files):
        if index and index % CHURN_EVERY == 0:
            churn.churn_step(joins=1, leaves=1, stabilize=True)
        receipts.append(publisher.publish_file(filename, filesize, "10.0.0.1", 6346))
    profile.disable()

    assert len(receipts) == NUM_FILES
    # An Item tuple plus one posting per keyword (2-5 terms and the take tag).
    assert all(receipt.tuples_published >= 3 for receipt in receipts)
    assert churn.stats.joins == (NUM_FILES - 1) // CHURN_EVERY
    assert (network.route_cache_hits, network.route_cache_misses) == (
        ROUTE_CACHE_HITS,
        ROUTE_CACHE_MISSES,
    )
    calls_per_file = pstats.Stats(profile).prim_calls / NUM_FILES
    assert calls_per_file < CALLS_PER_FILE_CEILING, calls_per_file
