"""Unit tests for the PIER catalog and table handles."""

import pytest

from repro.common.errors import SchemaError
from repro.common.ids import hash_key
from repro.dht.network import DhtNetwork
from repro.pier.catalog import Catalog, table_key
from repro.pier.schema import INVERTED_SCHEMA, ITEM_SCHEMA
from repro.piersearch.publisher import Publisher
from repro.piersearch.search import SearchEngine


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

    def test_publish_validates_schema(self, catalog):
        with pytest.raises(SchemaError):
            catalog.table("Inverted").publish({"keyword": "only"})

    def test_publish_deduplicates_primary_key(self, catalog):
        handle = catalog.table("Inverted")
        row = {"keyword": "dup", "fileID": "f1"}
        handle.publish(row)
        handle.publish(dict(row))
        assert len(handle.fetch("dup")) == 1

    def test_scan_all_iterates_unique_rows(self, catalog):
        handle = catalog.table("Inverted")
        for i in range(7):
            handle.publish({"keyword": f"k{i}", "fileID": "f"})
        assert len(list(handle.scan_all())) == 7

    def test_scan_all_distinguishes_tables(self, catalog):
        catalog.table("Inverted").publish({"keyword": "k", "fileID": "f"})
        catalog.table("Item").publish(
            {
                "fileID": "f",
                "filename": "x.mp3",
                "filesize": 1,
                "ipAddress": "1.1.1.1",
                "port": 1,
            }
        )
        assert len(list(catalog.table("Item").scan_all())) == 1


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


class TestRingKeyMemo:
    """A handle keeps the ring key of each str index value a read has
    resolved, for as long as its catalog lives; writes keep nothing."""

    def test_publishing_keeps_no_key(self):
        network, catalog, publisher, _ = _searched_world(8)
        assert _memo(catalog, "Item") == _memo(catalog, "Inverted") == {}

    def test_reads_keep_the_hashed_key_and_publishes_add_none(self):
        network, catalog, publisher, search = _searched_world(8)
        assert len(search.search(["Common", "rare1"])) == 2
        inverted, items = _memo(catalog, "Inverted"), _memo(catalog, "Item")
        assert set(inverted) == {"common", "rare1"}
        assert len(items) == 2  # the two answers' fileIDs
        for index in range(8, 8 + 32):
            publisher.publish_file(f"common other take{index}.mp3", index, "10.0.0.2", 1)
        assert _memo(catalog, "Item") == items
        assert _memo(catalog, "Inverted") == inverted
        for table in ("Inverted", "Item"):
            for value, key in _memo(catalog, table).items():
                assert key == hash_key(f"{table}|{value}")

    def test_a_second_world_starts_empty(self):
        first, first_catalog, _, search = _searched_world(8)
        search.search(["common", "rare2"])
        assert _memo(first_catalog, "Inverted") and first._hop_cache
        second, catalog, _, _ = _searched_world(8)
        assert _memo(catalog, "Inverted") == _memo(catalog, "Item") == {}
        assert second._hop_cache == {}

    def test_a_non_str_value_is_hashed_every_time(self, catalog):
        handle = catalog.table("Inverted")
        assert handle.ring_key(1) == table_key("Inverted", 1) != handle.ring_key(True)
        assert handle._ring_keys == {}
