"""Bloom filters.

Two uses in the paper:

* Footnote 2: newer LimeWire leaves publish Bloom filters of their files'
  keywords to ultrapeers (the Query Routing Protocol), cutting publish and
  search costs at the price of losing substring/wildcard matching.
* Section 6.3: term-frequency statistics for the TF/TPF rare-item schemes
  can be Bloom-compressed to shrink their memory footprint.
* The PIER optimizer's Bloom join (:mod:`repro.pier.optimizer`): the
  rarest posting list ships as a Bloom filter instead of a key digest,
  and only probable matches travel back.

The implementation is a classic k-hash Bloom filter over a bit array
(stored in one Python int, which keeps it compact and hashable-free).
"""

from __future__ import annotations

import hashlib
import math


class BloomFilter:
    """A fixed-size Bloom filter with double-hashing.

    False positives occur at roughly ``(1 - e^(-k n / m))^k``; false
    negatives never occur.
    """

    def __init__(self, num_bits: int, num_hashes: int):
        if num_bits < 8:
            raise ValueError(f"need at least 8 bits, got {num_bits}")
        if num_hashes < 1:
            raise ValueError(f"need at least 1 hash, got {num_hashes}")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = 0
        self._count = 0

    @classmethod
    def with_capacity(cls, expected_items: int, false_positive_rate: float = 0.01) -> "BloomFilter":
        """Size the filter for ``expected_items`` at a target FP rate."""
        if expected_items < 1:
            raise ValueError(f"need expected_items >= 1, got {expected_items}")
        if not 0.0 < false_positive_rate < 1.0:
            raise ValueError(f"fp rate must be in (0,1), got {false_positive_rate}")
        num_bits = max(8, int(-expected_items * math.log(false_positive_rate) / (math.log(2) ** 2)))
        num_hashes = max(1, int(round(num_bits / expected_items * math.log(2))))
        return cls(num_bits=num_bits, num_hashes=num_hashes)

    def _positions(self, item: str):
        digest = hashlib.sha1(item.encode("utf-8")).digest()
        h1 = int.from_bytes(digest[:8], "big")
        h2 = int.from_bytes(digest[8:16], "big") | 1  # odd => full cycle
        for i in range(self.num_hashes):
            yield (h1 + i * h2) % self.num_bits

    def add(self, item: str) -> None:
        for position in self._positions(item):
            self._bits |= 1 << position
        self._count += 1

    def update(self, items) -> None:
        for item in items:
            self.add(item)

    def __contains__(self, item: str) -> bool:
        return all(self._bits >> position & 1 for position in self._positions(item))

    def __len__(self) -> int:
        """Number of add() calls (not distinct items)."""
        return self._count

    @property
    def size_bytes(self) -> int:
        """Wire/storage size of the bit array."""
        return (self.num_bits + 7) // 8

    @property
    def fill_ratio(self) -> float:
        """Fraction of bits set; high fill means high false-positive rate."""
        return bin(self._bits).count("1") / self.num_bits

    def estimated_false_positive_rate(self) -> float:
        """FP probability implied by the current fill ratio."""
        return self.fill_ratio**self.num_hashes


def bloom_for_keys(keys, false_positive_rate: float = 0.01) -> BloomFilter:
    """Build a filter over ``keys``, sized for them at the target FP rate.

    The filter leg of the Bloom join, sized by the same
    :meth:`BloomFilter.with_capacity` rule the optimizer prices it with.
    An empty key set yields the minimal (8-bit, matches-nothing) filter.
    """
    keys = list(keys)
    if not keys:
        return BloomFilter(num_bits=8, num_hashes=1)
    bloom = BloomFilter.with_capacity(len(keys), false_positive_rate)
    bloom.update(keys)
    return bloom
