"""Unit tests for the PIER catalog and table handles."""

import pytest

from repro.common.errors import SchemaError
from repro.common.ids import hash_key
from repro.dht.network import DhtNetwork
from repro.pier.catalog import Catalog, table_key
from repro.pier.schema import INVERTED_SCHEMA, ITEM_SCHEMA
from repro.piersearch.publisher import Publisher
from repro.piersearch.search import SearchEngine
from repro.piersearch.tokenizer import extract_keywords


@pytest.fixture()
def catalog():
    network = DhtNetwork(rng=2)
    network.populate(32)
    cat = Catalog(network)
    cat.register(ITEM_SCHEMA)
    cat.register(INVERTED_SCHEMA)
    return cat


class TestRegistry:
    def test_register_and_lookup(self, catalog):
        assert catalog.table("Item").schema is ITEM_SCHEMA

    def test_duplicate_registration_rejected(self, catalog):
        with pytest.raises(SchemaError):
            catalog.register(ITEM_SCHEMA)

    def test_unknown_table_rejected(self, catalog):
        with pytest.raises(SchemaError):
            catalog.table("Nope")

    def test_contains_and_names(self, catalog):
        assert "Item" in catalog
        assert "Nope" not in catalog
        assert catalog.names() == ["Inverted", "Item"]


class TestTableKey:
    def test_same_table_same_value_same_key(self):
        assert table_key("Inverted", "toxic") == table_key("Inverted", "toxic")

    def test_different_tables_different_keys(self):
        assert table_key("Inverted", "x") != table_key("Item", "x")


class TestPublishFetch:
    def test_publish_then_fetch(self, catalog):
        row = {"keyword": "toxic", "fileID": "f1"}
        catalog.table("Inverted").publish(row)
        assert catalog.table("Inverted").fetch("toxic") == [row]

    def test_fetch_missing_returns_empty(self, catalog):
        assert catalog.table("Inverted").fetch("nothing") == []

    def test_same_keyword_lands_on_one_node(self, catalog):
        """All Inverted tuples for one keyword must share a hosting node."""
        handle = catalog.table("Inverted")
        for i in range(5):
            handle.publish({"keyword": "shared", "fileID": f"f{i}"})
        host = handle.host_of("shared")
        assert len(handle.fetch_local(host, "shared")) == 5

    def test_host_is_the_ring_owner_through_churn(self, catalog):
        """Reads of a value are served by its ring owner, before and after
        that owner leaves."""
        handle = catalog.table("Inverted")
        network = catalog.network
        handle.publish({"keyword": "moving", "fileID": "f1"})
        host = handle.host_of("moving")
        assert host == network.owner_of(handle.ring_key("moving"))
        network.remove_node(host, graceful=True)
        new_host = handle.host_of("moving")
        assert new_host != host
        assert new_host == network.owner_of(handle.ring_key("moving"))
        assert handle.fetch_local(new_host, "moving") == handle.fetch("moving")

    def test_publish_validates_schema(self, catalog):
        with pytest.raises(SchemaError):
            catalog.table("Inverted").publish({"keyword": "only"})

    def test_publish_deduplicates_primary_key(self, catalog):
        handle = catalog.table("Inverted")
        row = {"keyword": "dup", "fileID": "f1"}
        handle.publish(row)
        handle.publish(dict(row))
        assert len(handle.fetch("dup")) == 1


def _searched_world(files):
    """(network, catalog, publisher, search) over ``files`` distinct files
    sharing the keywords ``common`` and ``rare<i % 4>``."""
    network = DhtNetwork(rng=4)
    network.populate(16)
    catalog = Catalog(network)
    publisher = Publisher(network, catalog)
    for index in range(files):
        publisher.publish_file(f"common rare{index % 4} take{index}.mp3", index, "10.0.0.1", 1)
    return network, catalog, publisher, SearchEngine(network, catalog)


def _memo(catalog, table):
    return dict(catalog.table(table)._ring_keys)


def _published_keywords(files):
    """Every keyword ``_searched_world(files)`` publishes a posting under."""
    return {
        keyword
        for index in range(files)
        for keyword in extract_keywords(f"common rare{index % 4} take{index}.mp3")
    }


class TestRingKeyMemo:
    """A handle keeps the ring key of each str index value a read has
    resolved, or a write has stored a posting list under, for as long as
    its catalog lives. A write keeps no key whose index value is the whole
    primary key: Item keeps one key per fileID a query fetched, never one
    per published file."""

    def test_writes_keep_each_keyword_and_no_item_key(self):
        _, catalog, _, _ = _searched_world(8)
        assert _memo(catalog, "Item") == {}
        inverted = _memo(catalog, "Inverted")
        assert set(inverted) == _published_keywords(8)
        for keyword, key in inverted.items():
            assert key == hash_key(f"Inverted|{keyword}")

    def test_reads_add_fetched_ids_and_publishes_add_only_new_keywords(self):
        _, catalog, publisher, search = _searched_world(8)
        written = _memo(catalog, "Inverted")
        assert len(search.search(["Common", "rare1"])) == 2
        items = _memo(catalog, "Item")
        assert len(items) == 2  # the two answers' fileIDs
        assert _memo(catalog, "Inverted") == written  # both words were published
        for index in range(8, 8 + 32):
            publisher.publish_file(f"common other take{index}.mp3", index, "10.0.0.2", 1)
        assert _memo(catalog, "Item") == items
        inverted = _memo(catalog, "Inverted")
        assert set(inverted) - set(written) == {"other"} | {
            f"take{index}" for index in range(8, 8 + 32)
        }
        for table in ("Inverted", "Item"):
            for value, key in _memo(catalog, table).items():
                assert key == hash_key(f"{table}|{value}")

    def test_a_second_world_starts_empty(self):
        first, first_catalog, _, search = _searched_world(8)
        search.search(["common", "rare2"])
        assert _memo(first_catalog, "Item") and first._hop_cache
        second, catalog, _, _ = _searched_world(0)
        assert _memo(catalog, "Inverted") == _memo(catalog, "Item") == {}
        assert second._hop_cache == second._targets == {}
        _, catalog, _, _ = _searched_world(2)
        assert set(_memo(catalog, "Inverted")) == _published_keywords(2)
        assert _memo(catalog, "Item") == {}

    def test_a_non_str_value_is_hashed_every_time(self, catalog):
        handle = catalog.table("Inverted")
        assert handle.ring_key(1) == table_key("Inverted", 1) != handle.ring_key(True)
        assert handle._ring_keys == {}
