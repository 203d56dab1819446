"""Unit tests for per-node DHT storage."""

from repro.dht.storage import LocalStore


class TestLocalStore:
    def test_put_and_get(self):
        store = LocalStore()
        store.put(1, "a")
        assert store.get(1) == ["a"]

    def test_get_missing_key_empty(self):
        assert LocalStore().get(99) == []

    def test_multimap_semantics(self):
        store = LocalStore()
        store.put(1, "a")
        store.put(1, "b")
        assert sorted(store.get(1)) == ["a", "b"]

    def test_deduplicates_by_value(self):
        store = LocalStore()
        assert store.put(1, "a") is True
        assert store.put(1, "a") is False
        assert store.get(1) == ["a"]

    def test_deduplicates_by_identity_handle(self):
        store = LocalStore()
        row1 = {"keyword": "x", "fileID": "f1"}
        row2 = {"keyword": "x", "fileID": "f1"}  # equal but distinct dict
        store.put(1, row1, identity=("x", "f1"))
        store.put(1, row2, identity=("x", "f1"))
        assert len(store.get(1)) == 1

    def test_remove_key(self):
        store = LocalStore()
        store.put(1, "a")
        store.put(1, "b")
        assert store.remove_key(1) == 2
        assert store.get(1) == []
        assert store.remove_key(1) == 0

    def test_contains(self):
        store = LocalStore()
        store.put(5, "x")
        assert store.contains(5)
        assert not store.contains(6)

    def test_len_counts_values(self):
        store = LocalStore()
        store.put(1, "a")
        store.put(1, "b")
        store.put(2, "c")
        assert len(store) == 3

    def test_items_iteration(self):
        store = LocalStore()
        store.put(1, "a")
        store.put(2, "b")
        assert dict(store.items()) == {1: ["a"], 2: ["b"]}

    def test_clear(self):
        store = LocalStore()
        store.put(1, "a")
        store.clear()
        assert len(store) == 0
