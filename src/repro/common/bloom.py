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
It is set-at-a-time: :meth:`BloomFilter.update` sets the bits of a whole
key list and :meth:`BloomFilter.matching` tests one in a single loop
each (``add`` and ``in`` are the one-item forms of the same two loops),
and the work per key is paid **once per filter shape**, not once per
hash: an item's k positions depend only on its ``str`` form and the
filter's ``(num_bits, num_hashes)``, so its k-bit *mask* is memoised per
shape, and a key costs ``update`` one OR and ``matching`` one
``bits & mask == mask`` — a corpus re-uses the same join keys (fileIDs)
in every query's filter and probe, at the same shape whenever the
rarest posting list has the same length. Under the masks, an item's
``(h1, h2)`` double-hashing pair is memoised once per process (one
SHA-1 serves every shape). Both memos are keyed by the item's ``str``
form only, and both are bounded — the mask memo in total bits, since a
mask costs ``num_bits / 8`` bytes — and cleared wholesale when full:
the hash is pure, so dropping is always safe and never changes a bit.
"""

from __future__ import annotations

import hashlib
import math

#: cross-filter memo of the double-hashing pair per item (keyed by the
#: item's ``str`` form). The pair does not depend on a filter's size, so
#: one SHA-1 serves every filter an item ever meets. Bounded — cleared
#: wholesale when full (the hash is pure, so dropping is always safe).
_hash_memo: dict[str, tuple[int, int]] = {}
_HASH_MEMO_MAX = 1 << 15

#: cross-filter memo of k-bit masks: ``(num_bits, num_hashes)`` -> the
#: item's ``str`` form -> the int with the item's k positions set.
#: Bounded in total *bits* (a mask costs ``num_bits / 8`` bytes, so an
#: entry count would not bound memory): every shape's masks are dropped
#: together once :data:`_mask_memo_bits` would pass the bound.
_mask_memos: dict[tuple[int, int], dict[str, int]] = {}
_mask_memo_bits = 0
_MASK_MEMO_MAX_BITS = 1 << 24


def _hash_pair(text: str) -> tuple[int, int]:
    """``(h1, h2)`` of an item's ``str`` form: position i is
    ``(h1 + i*h2) % m``."""
    pair = _hash_memo.get(text)
    if pair is None:
        digest = hashlib.sha1(text.encode("utf-8")).digest()
        pair = (
            int.from_bytes(digest[:8], "big"),
            int.from_bytes(digest[8:16], "big") | 1,  # odd => full cycle
        )
        if len(_hash_memo) >= _HASH_MEMO_MAX:
            _hash_memo.clear()
        _hash_memo[text] = pair
    return pair


def _mask(masks: dict[str, int], text: str, num_bits: int, num_hashes: int) -> int:
    """The k-bit mask of ``text`` in a ``(num_bits, num_hashes)`` filter.

    The memo-miss path of :meth:`BloomFilter.update` /
    :meth:`BloomFilter.matching`, which probe ``masks`` (the shape's
    entry of :data:`_mask_memos`) inline.
    """
    global _mask_memo_bits
    h1, h2 = _hash_pair(text)
    mask = 0
    for _ in range(num_hashes):
        mask |= 1 << h1 % num_bits
        h1 += h2
    if _mask_memo_bits + num_bits > _MASK_MEMO_MAX_BITS:
        # Drop every shape's masks; ``masks`` is cleared in place and
        # stays registered, since the caller's loop keeps filling it.
        _mask_memos.clear()
        masks.clear()
        _mask_memos[(num_bits, num_hashes)] = masks
        _mask_memo_bits = 0
    masks[text] = mask
    _mask_memo_bits += num_bits
    return mask


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

    def add(self, item) -> None:
        self.update((item,))

    def update(self, items) -> None:
        """Add every item (hashed by its ``str`` form, like :meth:`matching`)."""
        bits = self._bits
        num_bits, num_hashes = self.num_bits, self.num_hashes
        masks = _mask_memos.setdefault((num_bits, num_hashes), {})
        masks_get = masks.get
        added = 0
        for item in items:
            text = item if item.__class__ is str else str(item)
            mask = masks_get(text)
            if mask is None:
                mask = _mask(masks, text, num_bits, num_hashes)
            bits |= mask
            added += 1
        self._bits = bits
        self._count += added

    def matching(self, items) -> list:
        """The items the filter may contain, in input order.

        The probe half of the Bloom join: the receiving site passes its
        local posting list's join keys through here in one call. Keys
        probe by ``str()`` — the filter hashes strings, and fileIDs are
        hex strings already — and the build side (:meth:`update`) hashes
        the same form, so any hashable join key works on both. The output
        is a superset of the true matches: a Bloom filter has no false
        negatives, and false positives survive only until the filter site
        verifies candidates exactly.
        """
        bits = self._bits
        num_bits, num_hashes = self.num_bits, self.num_hashes
        masks = _mask_memos.setdefault((num_bits, num_hashes), {})
        masks_get = masks.get
        found = []
        for item in items:
            text = item if item.__class__ is str else str(item)
            mask = masks_get(text)
            if mask is None:
                mask = _mask(masks, text, num_bits, num_hashes)
            if bits & mask == mask:
                found.append(item)
        return found

    def __contains__(self, item) -> bool:
        return bool(self.matching((item,)))

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
