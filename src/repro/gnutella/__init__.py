"""Gnutella 0.6 network simulator.

Reproduces the unstructured network the paper measures in Section 4:
ultrapeer/leaf topology with the two LimeWire degree profiles
(:mod:`repro.gnutella.topology`), per-ultrapeer indexes over the full
file lists their leaves publish (:mod:`repro.gnutella.index`),
TTL-scoped flooding with duplicate suppression
(:mod:`repro.gnutella.flooding`), dynamic querying / iterative deepening
(:mod:`repro.gnutella.dynamic`), a first-result latency model calibrated
to the paper's measurements (:mod:`repro.gnutella.latency`), the facade
that glues them into one network (:mod:`repro.gnutella.network`), the
topology crawler of Section 4.1 (:mod:`repro.gnutella.crawler`), and the
union-of-k measurement harness of Section 4.2
(:mod:`repro.gnutella.measurement`).
"""

from repro.gnutella.topology import Topology, TopologyConfig, build_topology
from repro.gnutella.index import UltrapeerIndex
from repro.gnutella.flooding import FloodResult, Match, flood
from repro.gnutella.dynamic import DynamicQueryResult, dynamic_query
from repro.gnutella.latency import GnutellaLatencyModel
from repro.gnutella.network import GnutellaNetwork
from repro.gnutella.crawler import CrawlResult, crawl, flood_overhead_curve
from repro.gnutella.measurement import MeasurementCampaign, replay_campaign

__all__ = [
    "Topology",
    "TopologyConfig",
    "build_topology",
    "UltrapeerIndex",
    "FloodResult",
    "Match",
    "flood",
    "DynamicQueryResult",
    "dynamic_query",
    "GnutellaLatencyModel",
    "GnutellaNetwork",
    "CrawlResult",
    "crawl",
    "flood_overhead_curve",
    "MeasurementCampaign",
    "replay_campaign",
]
