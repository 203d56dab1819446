"""Per-node key/value storage.

A DHT node stores a multimap from 160-bit keys to opaque values. PIER uses
this for its base tuples (Item, Inverted, InvertedCache). Values are kept insertion-ordered
and deduplicated by equality, mirroring set semantics of a relation with a
primary key.

A store also memoises *views*: a value derived from one key's stored
values by a ``build`` callable (:meth:`LocalStore.view`), kept until a write
changes that key's values. A PIER join site derives its join state from
the posting list it stores this way, once per version of the list.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterator


class LocalStore:
    """Multimap store on one DHT node, deduplicated per key.

    Slotted, with the view memo allocated lazily: most stores in a large
    simulated network never see a view, so at a million peers the
    per-node cost is one object plus one dict.

    The view memo holds one entry per key per ``build`` callable, built
    once per version of the key's values: every write that changes them — a
    :meth:`put` that stores a new value, :meth:`remove_key`, :meth:`clear`
    — drops the key's entries, and a duplicate :meth:`put`, which stores
    nothing, keeps them.
    """

    __slots__ = ("_data", "_views")

    def __init__(self) -> None:
        self._data: dict[int, dict[Hashable, Any]] = {}
        self._views: dict[int, dict[Callable, Any]] | None = None

    def put(self, key: int, value: Any, identity: Hashable | None = None) -> bool:
        """Store ``value`` under ``key``.

        ``identity`` is the dedup handle (defaults to the value itself,
        which must then be hashable). Returns True if the value was new.
        """
        bucket = self._data.get(key)
        if bucket is None:
            bucket = self._data[key] = {}
        handle = identity if identity is not None else value
        if handle in bucket:
            return False
        bucket[handle] = value
        views = self._views
        if views:
            views.pop(key, None)
        return True

    def holds(self, key: int, identity: Hashable) -> bool:
        """Whether a value under ``key`` has the dedup handle ``identity``:
        whether :meth:`put` with it would store nothing."""
        bucket = self._data.get(key)
        return bucket is not None and identity in bucket

    def get(self, key: int) -> list[Any]:
        """All values stored under ``key`` (empty list if none)."""
        bucket = self._data.get(key)
        if not bucket:
            return []
        return list(bucket.values())

    def view(self, key: int, build: Callable[[list[Any]], Any]) -> Any:
        """``build(values under key)``, memoised until a write changes them.

        The value is shared by every caller until then, so it must be
        treated as read-only. A key with no values is not memoised: its
        view is built fresh on each call, so reads of absent keys leave
        nothing behind.
        """
        views = self._views
        entry = views.get(key) if views is not None else None
        if entry is not None:
            value = entry.get(build)
            if value is not None:
                return value
        values = self.get(key)
        value = build(values)
        if values:
            if views is None:
                views = self._views = {}
            if entry is None:
                entry = views[key] = {}
            entry[build] = value
        return value

    def remove_key(self, key: int) -> int:
        """Drop all values under ``key``; returns how many were removed."""
        if self._views is not None:
            self._views.pop(key, None)
        bucket = self._data.pop(key, None)
        return len(bucket) if bucket else 0

    def contains(self, key: int) -> bool:
        return key in self._data and bool(self._data[key])

    def keys(self) -> Iterator[int]:
        return iter(self._data.keys())

    def pairs(self, key: int) -> Iterator[tuple[Hashable, Any]]:
        """The ``(dedup handle, value)`` pairs under ``key``, in insertion
        order: a handoff stores each value on the heir under its handle."""
        bucket = self._data.get(key)
        return iter(bucket.items()) if bucket else iter(())

    def items(self) -> Iterator[tuple[int, list[Any]]]:
        for key, bucket in self._data.items():
            yield key, list(bucket.values())

    def __len__(self) -> int:
        """Total number of stored values across all keys."""
        return sum(len(bucket) for bucket in self._data.values())

    def clear(self) -> None:
        self._data.clear()
        self._views = None
