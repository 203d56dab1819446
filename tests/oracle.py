"""Reference answers for differential tests.

:func:`oracle_items` answers a conjunctive keyword query by reading
posting lists and Item tuples straight out of the ring owners' stores —
no plan, no operators, no messages, no virtual time — so the answer of
any strategy at any batching can be checked against it.
:func:`nested_loop_join` is the same idea one level down: the equi-join
of two row lists by comparing every pair, with no hash table to get
wrong; a join site's matches are held to it.

The DHT references are the routing layer's definitions written out the
slow way: :func:`reference_fingers` looks all 160 finger starts up,
:func:`reference_step` is the interval test plus a linear scan of every
routing entry, and :func:`reference_iter_lookup` walks a network with
them hop by hop, liveness repair included. The production code answers
the same questions from compiled per-node tables and a distance-skipping
finger construction; ``tests/test_dht_routing_step.py`` holds the two
equal.

The Gnutella references are the content plane written out the slow way:
:func:`substring_scan` is the match rule with no index and no memo,
:func:`reference_replica_depths` and :func:`reference_stop_ttl` are the
per-replica ``min`` and the per-TTL recount the production helpers
replaced, and :func:`reference_replay` runs a union-of-k replay from
them. :func:`reference_snoop` is a warm-up snoop's whole result set, built
the way the deployment built it before it stopped at the QRS threshold.
``tests/test_gnutella_matcher.py`` holds production to all five.
:func:`reference_attach_leaves` is leaf attachment with a fresh candidate
list per connection (``tests/test_gnutella_topology.py``).
:func:`reference_flood` is a TTL flood counted from hop distances and
degrees rather than sent message by message
(``tests/test_gnutella_flooding.py``).

:func:`reference_publish` is publishing one file a tuple at a time: each
row validated, keyed, routed, copied and charged on its own, one typed
message per charge. ``tests/test_publish_batch.py`` holds the compiled
plan and the batch put to it.

:func:`reference_handoff_price` is one churn handoff's price by
definition: a digest of one fileID-sized handle per offered row, then the
rows the heir lacked, each a framed empty tuple, one header per message.
``tests/test_dht_membership_machine.py`` and
``tests/test_churn_regional.py`` hold the ``dht.handoff`` meter to it.

:func:`reference_stored_join` is a join site's budgeted build and its
probes by definition — partition counts, largest-first eviction, and
per-batch reads and scanned rows, with no memo and no running totals —
and :func:`reference_bloom_bits` is a Bloom filter's bit array built the
k hashes of every key at a time, with no memo. ``tests/test_pier_spill.py``
and ``tests/test_common_bloom.py`` hold the stored-list join and the
per-shape masks to them.

:func:`reference_posting_keys` is the ring keys of a leaf query's posting
lists derived term by term, each term tokenised on its own, as a race did
before it carried one normalised key. ``tests/test_hybrid_query_key.py``
holds the keys the hybrid engine's zero-answer check reads to it.

:class:`ReferenceLru` is the result cache's contract as a list scan:
entries in use order, the least recently used dropped first, an answer
larger than the whole budget refused before anything is dropped.
``tests/test_cache_results.py`` holds ``QueryResultCache`` to it.

:func:`reference_hop_delay` is one overlay hop's latency drawn on its
own with ``random.uniform``. ``tests/test_net_transport.py`` holds
``Transport.hop_delays``, the batched draw every hop takes, to a
left-to-right ``+=`` of these draws. :class:`SteadyHopTransport` is the
fake a test installs when it needs exact virtual times: every hop takes
one fixed latency and spends no RNG state.

:func:`reference_estimates` is the cost-based optimizer's closed-form
byte model: one sum per strategy over the legs of a ``k``-term chain,
written without any step list. ``tests/test_pier_steps.py`` holds the
step-by-step pricer to it, strategy by strategy.
"""

import hashlib
import math
from bisect import bisect_left

from repro.common.bloom import BloomFilter
from repro.common.errors import DhtError
from repro.common.ids import KEY_BITS, KEY_SPACE, in_interval, ring_distance
from repro.dht.keyspace import finger_start
from repro.dht.network import MAX_HOPS_FACTOR
from repro.dht.node import OWNS
from repro.dht.ring import Ring
from repro.net.transport import HOP_JITTER, HOP_LATENCY, InProcessTransport
from repro.pier.catalog import table_key
from repro.pier.operators import NUM_SPILL_PARTITIONS, spill_partition
from repro.pier.optimizer import JOIN_SELECTIVITY
from repro.pier.query import BLOOM_FP_RATE, JoinStrategy
from repro.piersearch.publisher import PublishReceipt
from repro.piersearch.tokenizer import extract_keywords


def reference_hop_delay(rng):
    """One per-hop latency draw: ``U[HOP_LATENCY*(1-j), HOP_LATENCY*(1+j)]``
    with ``j = HOP_JITTER``."""
    return rng.uniform(HOP_LATENCY * (1 - HOP_JITTER), HOP_LATENCY * (1 + HOP_JITTER))


class SteadyHopTransport(InProcessTransport):
    """An in-process transport whose every overlay hop takes exactly
    ``hop`` seconds: ``hops`` hops add ``hop`` left to right from ``0.0``
    and spend no RNG state. Install it on a network with
    :func:`steady_hops`."""

    def __init__(self, network, hop):
        super().__init__(network.meter, network.cost_model)
        self.hop = hop

    def hop_delays(self, rng, hops):
        total = 0.0
        for _ in range(hops):
            total += self.hop
        return total


def steady_hops(network, hop=HOP_LATENCY):
    """Give ``network`` a :class:`SteadyHopTransport`; returns ``network``."""
    network.transport = SteadyHopTransport(network, hop)
    return network


def ring_of(ids):
    """A :class:`Ring` holding ``ids`` (distinct)."""
    ring = Ring()
    ring.bulk_load(sorted(ids))
    return ring


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


def reference_posting_keys(table, terms):
    """Ring keys of the ``table`` posting lists a query on ``terms`` reads.

    Each term is tokenised on its own and every keyword hashed in term
    order, duplicates kept: SHA-1 of ``"<table>|<keyword>"`` as an integer.
    """
    return tuple(
        int.from_bytes(hashlib.sha1(f"{table}|{keyword}".encode("utf-8")).digest(), "big")
        for term in terms
        for keyword in extract_keywords(term)
    )


def nested_loop_join(left, right, column):
    """Equi-join of two row lists on ``column``, every pair compared.

    Output rows merge both sides; the right side wins column-name
    collisions.
    """
    return [{**l, **r} for l in left for r in right if l[column] == r[column]]


def reference_stored_join(stored, batches, budget):
    """A join site built on its ``stored`` keys and probed by ``batches``.

    Returns ``(matched, evicted, reads, reread_rows)``: per batch, its keys
    found in ``stored``; ``{partition: stored rows}`` of the partitions a
    ``budget``-row build evicts, in eviction order (while more than
    ``budget`` rows are held, the partition holding the most goes, ties
    to the lowest id); and, summed over the batches, one read and one scan
    of an evicted partition's rows per evicted partition a batch's keys
    land in.
    """
    fan_out = NUM_SPILL_PARTITIONS
    rows = [
        sum(1 for key in stored if spill_partition(key) == pid)
        for pid in range(fan_out)
    ]
    evicted = {}
    while budget is not None and len(stored) - sum(evicted.values()) > budget:
        held = [pid for pid in range(fan_out) if pid not in evicted]
        largest = max(rows[pid] for pid in held)
        pid = min(pid for pid in held if rows[pid] == largest)
        evicted[pid] = rows[pid]
    matched, reads, reread_rows = [], 0, 0
    for batch in batches:
        matched.append([key for key in batch if key in stored])
        for pid in evicted:
            if any(spill_partition(key) == pid for key in batch):
                reads += 1
                reread_rows += evicted[pid]
    return matched, evicted, reads, reread_rows


def reference_bloom_bits(items, num_bits, num_hashes):
    """A Bloom filter's bit array over ``items`` by definition: SHA-1 of
    each item's ``str`` form, double hashing, k shift-and-ORs per item."""
    bits = 0
    for item in items:
        digest = hashlib.sha1(str(item).encode("utf-8")).digest()
        h1 = int.from_bytes(digest[:8], "big")
        h2 = int.from_bytes(digest[8:16], "big") | 1
        for _ in range(num_hashes):
            bits |= 1 << h1 % num_bits
            h1 += h2
    return bits


def reference_estimates(optimizer, sizes, inverted_cache):
    """``{strategy: bytes}`` for the strategies ``optimizer`` would price,
    summed per strategy in closed form.

    For sizes ``n1 <= ... <= nk``: ``k`` plan legs for every chain
    strategy and one for the InvertedCache plan; leg ``i`` carries
    ``s_i = n1 * sigma^(i-1)`` survivors (framed tuples or digests), or
    for the Bloom join a filter for ``n1`` keys and then
    ``c_i = s_i + n2 * fp * sigma^(i-2)`` candidate digests, the last of
    them back to the filter site; every leg pays one header per hop. The
    distributed join and the InvertedCache plan also ship their
    ``s_k`` answers to the query node as framed ``tuple_bytes(fileid)``
    tuples plus one header per hop (the substring filters intersect like
    joins); the rewrites fetch where their matches are and ship no
    answer leg. Nothing site-local is priced.
    """
    cost = optimizer.cost_model
    sigma = JOIN_SELECTIVITY
    fp = BLOOM_FP_RATE
    hops = optimizer.hop_estimate()
    header = cost.header_bytes * hops

    def plan_cost(legs):
        return legs * cost.routed_bytes(cost.query_plan_bytes, hops)

    def survivors(n1, leg):
        return int(round(n1 * sigma ** (leg - 1)))

    ordered = sorted(sizes.values())
    k = len(ordered)
    n1 = ordered[0]
    answer_ship = survivors(n1, k) * cost.tuple_bytes(cost.fileid_bytes) + header
    if k < 2:
        return {JoinStrategy.DISTRIBUTED_JOIN: plan_cost(1) + answer_ship}

    plan = plan_cost(k)
    dist_ship = sum(
        survivors(n1, leg) * cost.rehash_tuple_bytes() + header for leg in range(1, k)
    )
    semi_ship = sum(
        cost.digest_bytes(survivors(n1, leg)) + header for leg in range(1, k)
    )
    filter_bytes = BloomFilter.with_capacity(max(1, n1), fp).size_bytes
    candidates = [
        int(round(survivors(n1, leg) + ordered[1] * fp * sigma ** (leg - 2)))
        for leg in range(2, k + 1)
    ]
    bloom_ship = (
        filter_bytes + header + sum(cost.digest_bytes(c) + header for c in candidates)
    )
    priced = {
        JoinStrategy.DISTRIBUTED_JOIN: plan + dist_ship + answer_ship,
        JoinStrategy.SEMI_JOIN: plan + semi_ship,
        JoinStrategy.BLOOM_JOIN: plan + bloom_ship,
    }
    if inverted_cache:
        priced[JoinStrategy.INVERTED_CACHE] = plan_cost(1) + answer_ship
    return priced


class ReferenceLru:
    """A byte-budgeted LRU cache kept as a plain list of
    ``[key, footprint, cost_bytes]`` in use order (least recent first)."""

    def __init__(self, budget_bytes):
        self.budget_bytes = budget_bytes
        self.entries = []
        self.hits = self.misses = self.insertions = 0
        self.rejections = self.evictions = self.bytes_saved = 0

    def _find(self, key):
        return next((i for i, entry in enumerate(self.entries) if entry[0] == key), None)

    def get(self, key):
        index = self._find(key)
        if index is None:
            self.misses += 1
            return False
        entry = self.entries.pop(index)
        self.entries.append(entry)
        self.hits += 1
        self.bytes_saved += entry[2]
        return True

    def put(self, key, footprint, cost_bytes):
        if not key:
            return False
        if footprint > self.budget_bytes:
            self.rejections += 1
            return False
        index = self._find(key)
        if index is not None:
            self.entries.pop(index)
        while sum(entry[1] for entry in self.entries) + footprint > self.budget_bytes:
            self.entries.pop(0)
            self.evictions += 1
        self.entries.append([key, footprint, cost_bytes])
        self.insertions += 1
        return True

    @property
    def used_bytes(self):
        return sum(entry[1] for entry in self.entries)


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


def reference_handoff_price(cost_model, offered, new):
    """``(messages, bytes)`` of one handoff sync offering ``offered`` rows,
    ``new`` of them new at the heir: nothing if nothing is offered."""
    messages = byte_count = 0
    if offered:
        messages += 1
        byte_count += cost_model.header_bytes + offered * cost_model.fileid_bytes
    if new:
        messages += 1
        byte_count += cost_model.header_bytes + new * cost_model.tuple_bytes(0)
    return messages, byte_count


def reference_publish(publisher, filename, filesize, ip_address, port, origin=None):
    """Publish one file through ``publisher``'s world, a tuple at a time.

    Item tuple first, then one posting per keyword; per tuple: validate,
    hash ``table|index value`` to the ring key, route it with
    ``network.lookup`` (which stabilizes, draws the origin when None and
    goes through the route cache), store at the owner and charge the
    routed message (one per hop, at least one; the payload once plus a
    header per hop), copy to the owner's ``replication - 1`` successors
    and charge one framed message per copy. A routing failure propagates
    with the earlier tuples stored and charged. Returns the receipt.
    """
    network, catalog, costs = publisher.network, publisher.catalog, publisher.cost_model
    file_id = hashlib.sha1(f"{filename}|{filesize}|{ip_address}|{port}".encode()).hexdigest()
    keywords = tuple(extract_keywords(filename))
    item = {
        "fileID": file_id,
        "filename": filename,
        "filesize": filesize,
        "ipAddress": ip_address,
        "port": port,
    }
    tuples = [("Item", item, costs.item_tuple_bytes(filename))]
    for keyword in keywords:
        if publisher.inverted_cache:
            row = {"keyword": keyword, "fileID": file_id, "fulltext": filename}
            size = costs.inverted_cache_tuple_bytes(keyword, filename)
            tuples.append(("InvertedCache", row, size))
        else:
            row = {"keyword": keyword, "fileID": file_id}
            tuples.append(("Inverted", row, costs.inverted_tuple_bytes(keyword)))
    messages = byte_count = 0
    for table, row, payload_bytes in tuples:
        schema = catalog.table(table).schema
        schema.validate(row)
        key = table_key(table, row[schema.index_column])
        identity = (table,) + tuple(row[column] for column in schema.key)
        category = f"publish.{table}"
        result = network.lookup(key, origin)
        owner = result.owner
        network.put_local(owner, key, row, identity=identity)
        charges = [
            (category, max(1, result.hops), costs.routed_bytes(payload_bytes, result.hops))
        ]
        successors = network.successors_of(owner)[: network.replication - 1]
        for node_id in successors:
            network.put_local(node_id, key, row, identity=identity)
        if successors:
            copies = len(successors)
            charges.append((category, copies, copies * costs.message_bytes(payload_bytes)))
        for charged_as, count, size in charges:
            network.transport.charge(charged_as, count, size)
            messages += count
            byte_count += size
    return PublishReceipt(
        file_id=file_id,
        keywords=keywords,
        tuples_published=len(tuples),
        bytes=byte_count,
        messages=messages,
    )


def substring_scan(items, terms, name=lambda item: item):
    """``items`` whose name contains every term, case-folded, in order.

    An empty ``terms`` is an empty conjunction: everything matches.
    """
    lowered = [term.lower() for term in terms]
    return [
        item for item in items if all(term in name(item).lower() for term in lowered)
    ]


def reference_hosts(network):
    """(filename, node) -> the ultrapeers whose index lists a file of
    that node under that name, read back out of the indexes."""
    hosts = {}
    for ultrapeer, index in network.indexes.items():
        for file in index.files:
            hosts.setdefault((file.filename, file.node_id), []).append(ultrapeer)
    return hosts


def reference_replica_depths(replicas, hosts, depth_map):
    """Depth of each replica: least depth over its hosting ultrapeers
    that ``depth_map`` reaches, ``inf`` with none."""
    return [
        min(
            (
                depth_map[up]
                for up in hosts.get((file.filename, file.node_id), ())
                if up in depth_map
            ),
            default=math.inf,
        )
        for file in replicas
    ]


def reference_snoop(network, names, horizon):
    """Every replica of ``names`` some ultrapeer in ``horizon`` indexes,
    filename by filename in placement order: the replicas at depth 0 when
    each ultrapeer of the horizon is at depth 0, read off
    ``network.replica_depths`` and zipped with the replicas."""
    replicas = [
        replica for name in names for replica in network.placement.replicas_by_filename[name]
    ]
    depths = network.replica_depths(names, dict.fromkeys(horizon, 0))
    return [file for file, depth in zip(replicas, depths) if depth == 0]


def reference_flood(topology, indexes, origin, terms, ttl):
    """A TTL flood by definition, as ``(visited, messages, visited_by_hop,
    messages_by_hop, matches)``.

    A node is reached at its hop distance from ``origin`` when that is at
    most ``ttl``. Every node reached before the last hop sends one
    message to each neighbour but the one it first heard from (the origin
    to all of them), duplicates included. The per-hop curves stop after
    the first hop that reaches nobody new. ``matches`` is the sorted
    ``(filename, node_id, hop)`` of every file a reached node indexes
    that contains every term.
    """
    distance = {origin: 0}
    for hop in range(1, ttl + 1):
        for node in topology.ultrapeers:
            if node not in distance and any(
                distance.get(neighbor) == hop - 1 for neighbor in topology.neighbors[node]
            ):
                distance[node] = hop
    farthest = max(distance.values())
    last_hop = min(ttl, farthest + 1)

    def sent_by(node):
        return len(topology.neighbors[node]) - (node != origin)

    visited_by_hop = [
        sum(1 for d in distance.values() if d <= hop) for hop in range(last_hop + 1)
    ]
    messages_by_hop = [
        sum(sent_by(node) for node, d in distance.items() if d < hop)
        for hop in range(last_hop + 1)
    ]
    matches = sorted(
        (file.filename, file.node_id, distance[node])
        for node, index in indexes.items()
        if node in distance and terms
        for file in substring_scan(index.files, terms, name=lambda f: f.filename)
    )
    return set(distance), messages_by_hop[-1], visited_by_hop, messages_by_hop, matches


def reference_stop_ttl(depths, desired_results, max_ttl):
    """The dynamic-query stopping TTL, recounting the list at every TTL."""
    for ttl in range(1, max_ttl + 1):
        found = sum(1 for depth in depths if depth <= ttl)
        if found >= desired_results:
            return ttl
    return max_ttl


def reference_replay(network, query, depth_maps, desired_results, union_ks, max_ttl, designated):
    """One query of a union-of-k campaign from the definitions above.

    Returns the count fields of a ``QueryReplay`` as a dict (latency is
    given as the first-result depth at the designated vantage).
    """
    replicas = network.all_results_for(list(query.terms))
    hosts = reference_hosts(network)
    reached_by_vantage = []
    first_depth = math.inf
    for position, depth_map in enumerate(depth_maps):
        depths = reference_replica_depths(replicas, hosts, depth_map)
        stop = reference_stop_ttl(depths, desired_results, max_ttl)
        reached_by_vantage.append(
            {row for row, depth in enumerate(depths) if depth <= stop}
        )
        if position == designated:
            first_depth = min(depths, default=math.inf)

    def distinct(rows):
        return len({replicas[row].filename for row in rows})

    union = set()
    union_results, union_distinct = {}, {}
    for count, reached in enumerate(reached_by_vantage, start=1):
        union |= reached
        if count in union_ks:
            union_results[count] = len(union)
            union_distinct[count] = distinct(union)
    single = reached_by_vantage[designated]
    return {
        "vantage_results": [len(reached) for reached in reached_by_vantage],
        "union_results_by_k": union_results,
        "union_distinct_by_k": union_distinct,
        "single_results": len(single),
        "single_distinct": distinct(single),
        "average_replication": len(union) / distinct(union) if union else 0.0,
        "first_depth": first_depth,
        "matched_filenames": sorted({file.filename for file in replicas}),
    }


def reference_attach_leaves(ultrapeers, leaves, profiles, connections, rng):
    """Leaf attachment, rebuilding the candidate list for every connection."""
    capacity = {up: profiles[up]["leaf_capacity"] for up in ultrapeers}
    available = [up for up in ultrapeers if capacity[up] > 0]
    leaf_parents = {}
    ultrapeer_leaves = {up: [] for up in ultrapeers}
    for leaf in leaves:
        parents = []
        for _ in range(min(connections, len(available))):
            candidates = [up for up in available if up not in parents]
            if not candidates:
                break
            parent = rng.choice(candidates)
            parents.append(parent)
            ultrapeer_leaves[parent].append(leaf)
            capacity[parent] -= 1
            if capacity[parent] == 0:
                available.remove(parent)
        if not parents:
            parent = rng.choice(ultrapeers)
            parents = [parent]
            ultrapeer_leaves[parent].append(leaf)
        leaf_parents[leaf] = parents
    return leaf_parents, ultrapeer_leaves
