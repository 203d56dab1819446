"""Reference answers for differential tests.

:func:`oracle_items` answers a conjunctive keyword query by reading
posting lists and Item tuples straight out of the ring owners' stores —
no plan, no operators, no messages, no virtual time — so the answer of
any strategy at any batching can be checked against it.
:func:`nested_loop_join` is the same idea one level down: the equi-join
of two row lists by comparing every pair, with no hash table to get
wrong; :func:`reference_match_counts` replays a symmetric join's
arrivals through it, which is what the key-multiset join is held to.

The DHT references are the routing layer's definitions written out the
slow way: :func:`reference_fingers` looks all 160 finger starts up,
:func:`reference_step` is the interval test plus a linear scan of every
routing entry, and :func:`reference_iter_lookup` walks a network with
them hop by hop, liveness repair included. The production code answers
the same questions from compiled per-node tables and a distance-skipping
finger construction; ``tests/test_dht_routing_step.py`` holds the two
equal.
"""

from bisect import bisect_left

from repro.common.errors import DhtError
from repro.common.ids import KEY_BITS, KEY_SPACE, in_interval, ring_distance
from repro.dht.keyspace import finger_start
from repro.dht.network import MAX_HOPS_FACTOR
from repro.dht.node import OWNS
from repro.pier.catalog import table_key
from repro.piersearch.tokenizer import extract_keywords


def oracle_items(catalog, terms):
    """Item rows whose filename carries every indexable keyword of ``terms``."""

    def stored(table, index_value):
        owner = catalog.network.owner_of(table_key(table, index_value))
        return catalog.table(table).fetch_local(owner, index_value)

    keywords = {keyword for term in terms for keyword in extract_keywords(term)}
    if not keywords:
        return []
    postings = [{row["fileID"] for row in stored("Inverted", k)} for k in keywords]
    items = [
        item
        for file_id in sorted(set.intersection(*postings))
        for item in stored("Item", file_id)
    ]
    return [i for i in items if keywords <= set(extract_keywords(i["filename"]))]


def nested_loop_join(left, right, column):
    """Equi-join of two row lists on ``column``, every pair compared.

    Output rows merge both sides; the right side wins column-name
    collisions.
    """
    return [{**l, **r} for l in left for r in right if l[column] == r[column]]


def reference_match_counts(moves, column="k"):
    """Per-arrival match counts of a symmetric join fed ``(side, key)``
    arrivals: each arrival nested-loop joined with the other side's
    earlier arrivals."""
    seen = {"left": [], "right": []}
    counts = []
    for side, key in moves:
        row = {column: key}
        other = seen["right" if side == "left" else "left"]
        counts.append(len(nested_loop_join([row], other, column)))
        seen[side].append(row)
    return counts


def reference_owner(sorted_ids, key):
    """The member responsible for ``key``: the first clockwise from it
    (itself included), wrapping past zero."""
    return sorted_ids[bisect_left(sorted_ids, key % KEY_SPACE) % len(sorted_ids)]


def reference_fingers(sorted_ids, node_id):
    """The finger table by definition: the owner of ``node_id + 2**i`` for
    every bit position ``i``, consecutive duplicates dropped."""
    fingers = []
    for index in range(KEY_BITS):
        owner = reference_owner(sorted_ids, finger_start(node_id, index))
        if not fingers or owner != fingers[-1]:
            fingers.append(owner)
    return fingers


def reference_step(node, key):
    """One routing step from ``node``'s public tables, the long way.

    :data:`~repro.dht.node.OWNS` when ``key`` lies in ``(predecessor,
    node]``; else the entry of ``fingers + successors`` strictly closer to
    the key (clockwise) than the node itself and than every earlier
    entry, falling back to the first successor; None with no successor.
    """
    node_id, predecessor = node.node_id, node.predecessor
    if predecessor is None or in_interval(key, predecessor, node_id, inclusive_end=True):
        return OWNS
    best, best_distance = None, ring_distance(node_id, key)
    for candidate in node.fingers + node.successors:
        distance = ring_distance(candidate, key)
        if candidate != node_id and distance < best_distance:
            best, best_distance = candidate, distance
    if best is None and node.successors:
        best = node.successors[0]
    return best


def reference_iter_lookup(network, key, origin):
    """Reference walker for ``DhtNetwork.lookup`` / ``iter_lookup``.

    Yields each node reached, starting with ``origin``; returns ``(owner,
    path, retries)``. Reads membership and per-node tables only through
    public attributes and changes nothing, so it can be stepped in
    lockstep with the production generator while churn lands between
    hops. Raises :class:`DhtError` with the production messages.
    """
    key %= KEY_SPACE
    max_hops = MAX_HOPS_FACTOR * max(1, network.size).bit_length() + 8
    current, path, retries = origin, [origin], 0
    yield current
    for _ in range(max_hops):
        node = network.nodes.get(current)
        if node is None:
            live = [node_id for node_id in path if node_id in network.nodes]
            if not live:
                raise DhtError(
                    f"every node on the {len(path) - 1}-hop lookup path for key "
                    f"{key:x} has departed",
                    key=key,
                    path=path,
                )
            current = live[-1]
            retries += 1
            path.append(current)
            yield current
            continue
        next_hop = reference_step(node, key)
        if next_hop == OWNS:
            return current, path, retries
        if next_hop is None:
            raise DhtError(
                f"routing dead-end at node {current:x} for key {key:x} "
                f"after {len(path) - 1} hops: no finger or successor to "
                "forward to",
                key=key,
                path=path,
            )
        if next_hop not in network.nodes:
            retries += 1
            live = [
                candidate
                for candidate in node.successors
                if candidate in network.nodes and candidate != current
            ]
            if not live:
                raise DhtError(
                    f"node {current:x} has no live successor to route "
                    f"around departures for key {key:x} after "
                    f"{len(path) - 1} hops",
                    key=key,
                    path=path,
                )
            next_hop = live[0]
        current = next_hop
        path.append(current)
        yield current
    raise DhtError(
        f"routing for key {key:x} did not converge in {max_hops} hops",
        key=key,
        path=path,
    )
