"""A memoised stored-list view is never stale.

A join site derives its join state from the posting list it stores — the
fileIDs, their key set and distinct order, the budgeted build, the Bloom
filter and a filter's matches — once per version of that list: the store
memoises the :class:`~repro.pier.operators.StoredList` it built
(:meth:`DhtNetwork.local_view`) until a write changes the key's values.
A missed invalidation would go on answering from a list the store no
longer holds, and no answer test would notice unless its query happened
to read that key after that write. This state machine drives every kind
of write a store sees — routed, replicated publishes of new rows and of
duplicates, direct local writes, a joining node claiming
keys from its successor, a graceful leave handing its store over, and a
crash — and after each one holds the memoised view
at every live node and posting key to a view built fresh from
``get_local``.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.common.bloom import bloom_for_keys
from repro.dht.network import DhtNetwork
from repro.pier.catalog import Catalog, table_key
from repro.pier.operators import StoredList
from repro.piersearch.publisher import Publisher

KEYWORDS = ("nebula", "quasar", "aurora")
FILES = 12
#: one budgeted build configuration: (row budget, fan-out, row bytes)
BUDGET = (3, 4, 16)
FP_RATE = 0.05
#: a filter from another site, probed against every list
PROBE_FILTER = bloom_for_keys([f"file{index:02d}" for index in range(0, FILES, 2)], FP_RATE)


def posting(keyword, index):
    return {"keyword": keyword, "fileID": f"file{index:02d}"}


def derived(view):
    """Everything a query derives from a stored-list view, as plain values."""
    build = view.join(*BUDGET)
    bloom = view.bloom(FP_RATE)
    return (
        view.rows,
        view.ids,
        view.key_set,
        view.distinct,
        build.keys,
        list(build.evicted.items()),
        build.resident_rows,
        (bloom.num_bits, bloom.num_hashes, bloom._bits),
        view.bloom_matches(PROBE_FILTER),
    )


keywords = st.sampled_from(KEYWORDS)
file_indexes = st.integers(0, FILES - 1)
picks = st.integers(0, 1 << 16)


class StoreViews(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.network = DhtNetwork(replication=2, rng=7)
        self.network.populate(6)
        self.catalog = Catalog(self.network)
        Publisher(self.network, self.catalog)
        self.postings = self.catalog.table("Inverted")

    def node(self, pick):
        members = sorted(self.network.nodes)
        return members[pick % len(members)]

    @rule(keyword=keywords, indexes=st.lists(file_indexes, min_size=1, max_size=4))
    def put_many(self, keyword, indexes):
        """A routed, replicated batch; repeats in it, or rows already
        stored, are duplicates that store nothing."""
        entries = [self.postings.entry(posting(keyword, index)) for index in indexes]
        self.network.put_many(entries)

    @rule(pick=picks, keyword=keywords, index=file_indexes)
    def put_local(self, pick, keyword, index):
        _, row, identity, _, _ = self.postings.entry(posting(keyword, index))
        self.network.put_local(self.node(pick), table_key("Inverted", keyword), row, identity)

    @rule(at=st.one_of(keywords.map(lambda keyword: table_key("Inverted", keyword)), picks))
    def create_node(self, at):
        """A node joining right on a posting key claims that list from its
        successor (at replication 2 the successor keeps its copy)."""
        if at not in self.network.nodes:
            self.network.create_node(at)

    @rule(pick=picks, graceful=st.booleans())
    def remove_node(self, pick, graceful):
        """A graceful leave hands its store to its successor; a crash
        loses it."""
        if self.network.size > 2:
            self.network.remove_node(self.node(pick), graceful=graceful)

    @invariant()
    def every_view_equals_a_fresh_one(self):
        for node in self.network.nodes:
            for keyword in KEYWORDS:
                key = table_key("Inverted", keyword)
                memoised = self.network.local_view(node, key, StoredList)
                fresh = StoredList(self.network.get_local(node, key))
                assert derived(memoised) == derived(fresh), (node, keyword)


StoreViews.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)
TestStoreViews = StoreViews.TestCase


def test_a_view_is_shared_until_a_write_changes_its_list():
    """Reads share one view per list version; a duplicate put keeps it,
    a new value or a removal drops it."""
    network = DhtNetwork(rng=3)
    network.populate(4)
    catalog = Catalog(network)
    Publisher(network, catalog)
    postings = catalog.table("Inverted")
    key = table_key("Inverted", "nebula")
    node = network.owner_of(key)
    entries = [postings.entry(posting("nebula", index)) for index in range(3)]
    network.put_many(entries)
    view = network.local_view(node, key, StoredList)
    assert network.local_view(node, key, StoredList) is view
    network.put_many(entries[:1])  # a duplicate stores nothing
    assert network.local_view(node, key, StoredList) is view
    network.put_many([postings.entry(posting("nebula", 7))])
    newer = network.local_view(node, key, StoredList)
    assert newer is not view and newer.ids[-1] == "file07"
    network.create_node(key)  # a newcomer claims the key: the list moves off
    assert network.local_view(node, key, StoredList).rows == []


def _put_new_row(network, postings, key, owner, successor):
    _, row, identity, _, _ = postings.entry(posting("nebula", 5))
    network.put_local(owner, key, row, identity)
    return owner


def _join_claims_key(network, postings, key, owner, successor):
    network.create_node(key)  # the newcomer owns the key: owner hands it over
    return owner


def _graceful_leave(network, postings, key, owner, successor):
    network.remove_node(owner, graceful=True)  # successor takes owner's rows
    return successor


def _routed_put(network, postings, key, owner, successor):
    network.put_many([postings.entry(posting("nebula", 6))])
    return owner


@pytest.mark.parametrize(
    "write",
    [
        _put_new_row,
        _join_claims_key,
        _graceful_leave,
        _routed_put,
    ],
    ids=lambda write: write.__name__.strip("_"),
)
def test_each_kind_of_write_drops_the_view_it_changes(write):
    """The owner and its successor each hold a memoised view of the key;
    after one write, the node whose list it changed serves a new view
    that equals a fresh one."""
    network = DhtNetwork(rng=3)
    network.populate(4)
    catalog = Catalog(network)
    Publisher(network, catalog)
    postings = catalog.table("Inverted")
    key = table_key("Inverted", "nebula")
    owner = network.owner_of(key)
    members = sorted(network.nodes)
    successor = members[(members.index(owner) + 1) % len(members)]
    for node, indexes in ((owner, range(3)), (successor, (9,))):
        for index in indexes:
            _, row, identity, _, _ = postings.entry(posting("nebula", index))
            network.put_local(node, key, row, identity)
    before = {node: network.local_view(node, key, StoredList) for node in (owner, successor)}
    assert network.local_view(owner, key, StoredList) is before[owner]
    changed = write(network, postings, key, owner, successor)
    current = network.local_view(changed, key, StoredList)
    fresh = StoredList(network.get_local(changed, key))
    assert current is not before[changed]
    assert derived(current) == derived(fresh)
    assert current.ids != before[changed].ids
