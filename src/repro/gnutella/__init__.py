"""Gnutella 0.6 network simulator.

Reproduces the unstructured network the paper measures in Section 4:
ultrapeer/leaf topology with the two LimeWire degree profiles
(:mod:`repro.gnutella.topology`), the one filename matcher that resolves
a query's names for the whole network (:mod:`repro.gnutella.index`),
TTL-scoped flooding with duplicate suppression, for a query's horizon and
message cost (:mod:`repro.gnutella.flooding`), a first-result latency
model calibrated to the paper's measurements
(:mod:`repro.gnutella.latency`), the facade that holds each replica's
hosting ultrapeer (:mod:`repro.gnutella.network`), the topology crawler
of Section 4.1 (:mod:`repro.gnutella.crawler`), and the union-of-k
measurement harness of Section 4.2 (:mod:`repro.gnutella.measurement`).

A dynamic query (iterative deepening: flood TTL 1, 2, ... until enough
results) is answered in closed form, by replica depth: ``bfs_depths`` ->
``GnutellaNetwork.replica_depths`` -> ``dynamic_stop_ttl`` ->
``GnutellaLatencyModel.arrival_for_depth``.
"""

from repro.gnutella.topology import Topology, TopologyConfig, build_topology
from repro.gnutella.flooding import FloodResult, flood
from repro.gnutella.latency import GnutellaLatencyModel
from repro.gnutella.network import GnutellaNetwork
from repro.gnutella.crawler import CrawlResult, crawl, flood_overhead_curve
from repro.gnutella.measurement import MeasurementCampaign, replay_campaign

__all__ = [
    "Topology",
    "TopologyConfig",
    "build_topology",
    "FloodResult",
    "flood",
    "GnutellaLatencyModel",
    "GnutellaNetwork",
    "CrawlResult",
    "crawl",
    "flood_overhead_curve",
    "MeasurementCampaign",
    "replay_campaign",
]
