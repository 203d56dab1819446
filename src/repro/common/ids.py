"""Identifiers and consistent-hashing helpers.

The DHT operates on a 160-bit circular key space, as in Chord and Bamboo.
Node ids and content keys are both points on this ring; :func:`hash_key`
maps arbitrary strings/bytes onto it with SHA-1 (the hash Chord and the
original PIER deployment used).
"""

from __future__ import annotations

import hashlib

KEY_BITS = 160
KEY_SPACE = 1 << KEY_BITS

# A NodeId is just an int in [0, KEY_SPACE); the alias documents intent.
NodeId = int


def hash_to_int(data: bytes) -> int:
    """Hash raw bytes onto the 160-bit ring."""
    return int.from_bytes(hashlib.sha1(data).digest(), "big")


def hash_key(key: str) -> int:
    """Hash a string key (e.g. a keyword or a fileID) onto the ring."""
    return hash_to_int(key.encode("utf-8"))


def ring_distance(start: int, end: int) -> int:
    """Clockwise distance from ``start`` to ``end`` on the ring."""
    return (end - start) % KEY_SPACE


def in_interval(value: int, start: int, end: int, inclusive_end: bool = True) -> bool:
    """Return True if ``value`` lies in the clockwise interval (start, end].

    The interval wraps around zero. With ``inclusive_end=False`` the interval
    is open on both sides: (start, end).
    """
    value %= KEY_SPACE
    start %= KEY_SPACE
    end %= KEY_SPACE
    if start == end:
        # The interval covers the whole ring except `start` itself.
        return value != start or inclusive_end
    dist_value = ring_distance(start, value)
    dist_end = ring_distance(start, end)
    if inclusive_end:
        return 0 < dist_value <= dist_end
    return 0 < dist_value < dist_end
