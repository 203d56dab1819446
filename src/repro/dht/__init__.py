"""Chord-style DHT substrate.

PIER (and therefore PIERSearch) runs over a DHT. The paper's deployment
used Bamboo; any DHT exposing put/get/lookup with O(log N)-hop routing
satisfies PIER's contract and the analytical model's ``log N`` query cost,
so we implement a Chord-style ring: 160-bit keyspace, finger tables,
successor lists, replication to successors, and explicit hop accounting.
"""

from repro.dht.keyspace import finger_start
from repro.dht.node import DhtNode
from repro.dht.network import DhtNetwork, LookupResult
from repro.dht.storage import LocalStore
from repro.dht.churn import ChurnProcess

__all__ = [
    "finger_start",
    "DhtNode",
    "DhtNetwork",
    "LookupResult",
    "LocalStore",
    "ChurnProcess",
]
