"""Ring arithmetic shared by DHT nodes and the network facade."""

from __future__ import annotations

from collections.abc import Callable

from repro.common.ids import KEY_BITS, KEY_SPACE


def finger_start(node_id: int, index: int) -> int:
    """Start of finger ``index`` for ``node_id``: (n + 2^index) mod 2^160."""
    if not 0 <= index < KEY_BITS:
        raise ValueError(f"finger index {index} outside [0, {KEY_BITS})")
    return (node_id + (1 << index)) % KEY_SPACE


def finger_table(node_id: int, responsible: Callable[[int], int]) -> list[int]:
    """The deduplicated finger table of ``node_id``.

    By definition finger ``i`` is ``responsible(finger_start(node_id, i))``
    for every ``i`` in ``[0, KEY_BITS)``, with consecutive duplicates
    dropped (``tests/oracle.py`` keeps that written out as the reference).
    The construction here skips by distance instead of visiting every bit
    position: once ``owner`` is found for start ``i``, no member lies
    between that start and ``owner``, so every later start up to ``owner``
    has the same owner and the next index worth a lookup is the first
    whose start lies past it — ``distance.bit_length()`` for the clockwise
    ``distance`` from ``node_id`` to ``owner``. That is O(log N) owner
    lookups on an N-member ring of spread-out ids instead of 160 (and
    never more than 160, however the ids cluster). When the start has
    wrapped past ``node_id`` (the owner is nearer than the start:
    ``node_id`` itself, or the first member after a non-member
    ``node_id``), every remaining start has that owner too and the table
    is complete.

    ``responsible`` is the owner lookup, :meth:`Ring.responsible
    <repro.dht.ring.Ring.responsible>`, so one construction serves both
    ring representations.
    """
    fingers: list[int] = []
    previous = None
    index = 0
    while index < KEY_BITS:
        owner = responsible(finger_start(node_id, index))
        if owner != previous:
            fingers.append(owner)
            previous = owner
        next_index = ((owner - node_id) % KEY_SPACE).bit_length()
        if next_index <= index:
            break
        index = next_index
    return fingers
