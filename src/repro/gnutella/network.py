"""Gnutella network facade.

Glues topology, content placement, per-ultrapeer indexes, flooding,
dynamic querying and the latency model into one object experiments can
drive.

The network owns the content plane everything above it reads: the one
filename matcher its indexes share, and each replica's hosting ultrapeers.
"""

from __future__ import annotations

import math
import random
from collections.abc import Container
from itertools import compress, repeat

from repro.common.rng import make_rng
from repro.gnutella.dynamic import (
    DEFAULT_DESIRED_RESULTS,
    DEFAULT_MAX_TTL,
    DynamicQueryResult,
    dynamic_query,
)
from repro.gnutella.flooding import FloodResult, flood
from repro.gnutella.index import FilenameMatcher, UltrapeerIndex
from repro.gnutella.latency import GnutellaLatencyModel
from repro.gnutella.topology import Topology, TopologyConfig, build_topology
from repro.workload.library import ContentLibrary, Placement, SharedFile


class GnutellaNetwork:
    """A fully assembled Gnutella network with content."""

    def __init__(
        self,
        topology: Topology,
        rng: random.Random | int | None = None,
    ):
        self.topology = topology
        self.latency_model = GnutellaLatencyModel()
        self.rng = make_rng(rng)
        #: resolves a query's filenames once for the whole network
        self.matcher = FilenameMatcher()
        self.indexes: dict[int, UltrapeerIndex] = {
            ultrapeer: UltrapeerIndex(self.matcher)
            for ultrapeer in topology.ultrapeers
        }
        self.placement: Placement | None = None
        #: filename -> each replica's hosting ultrapeer (None: none), in
        #: placement order
        self._replica_hosts: dict[str, list[int | None]] = {}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        library: ContentLibrary,
        config: TopologyConfig | None = None,
        rng: random.Random | int | None = None,
    ) -> "GnutellaNetwork":
        """Build topology, place ``library``'s replicas, index everything."""
        rng = make_rng(rng)
        config = config or TopologyConfig()
        topology = build_topology(config)
        network = cls(topology, rng=rng)
        placement = library.place(topology.all_nodes(), rng=rng)
        network.load_placement(placement)
        return network

    def load_placement(self, placement: Placement) -> None:
        """Index every replica at the ultrapeer responsible for its node.

        Leaves publish their file lists to their parent ultrapeer;
        ultrapeers index their own files locally.
        """
        self.placement = placement
        for filename in placement.replicas_by_filename:
            self.matcher.add(filename)
        for node, files in placement.files_by_node.items():
            host = self._host_of(node)
            if host is not None:
                self.indexes[host].add_files(files)
        for filename, replicas in placement.replicas_by_filename.items():
            self._replica_hosts[filename] = [self._host_of(replica.node_id) for replica in replicas]

    def _host_of(self, node: int) -> int | None:
        """The ultrapeer that indexes ``node``'s files (None: none does)."""
        if self.topology.is_ultrapeer(node):
            return node
        return self.topology.leaf_parent.get(node)

    def replica_depths(self, filenames: list[str], depth_map: dict[int, int]) -> list[float]:
        """Per replica of ``filenames``, in placement order: the
        ``depth_map`` value of its hosting ultrapeer, ``inf`` with none."""
        depth_of = depth_map.get
        depths: list[float] = []
        for filename in filenames:
            depths.extend(map(depth_of, self._replica_hosts[filename], repeat(math.inf)))
        return depths

    def replicas_hosted_by(
        self, filenames: list[str], ultrapeers: Container[int], limit: int
    ) -> list[SharedFile]:
        """The replicas of ``filenames`` that some ultrapeer in
        ``ultrapeers`` indexes, filename by filename in placement order
        (those whose :meth:`replica_depths` over a depth map of
        ``ultrapeers`` is finite), cut short after the filename that
        brings the count to ``limit``. A list shorter than ``limit`` is
        the full list; any other is a prefix of it."""
        placed = self.placement.replicas_by_filename
        hosted = ultrapeers.__contains__
        found: list[SharedFile] = []
        for filename in filenames:
            found.extend(compress(placed[filename], map(hosted, self._replica_hosts[filename])))
            if len(found) >= limit:
                break
        return found

    # ------------------------------------------------------------------
    # Query interface
    # ------------------------------------------------------------------

    def flood_query(self, origin: int, terms: list[str], ttl: int) -> FloodResult:
        """Plain TTL flood from ``origin`` (a node; leaves go via parent)."""
        return flood(self.topology, self.indexes, self.topology.ultrapeer_of(origin), terms, ttl)

    def query(
        self,
        origin: int,
        terms: list[str],
        desired_results: int = DEFAULT_DESIRED_RESULTS,
        max_ttl: int = DEFAULT_MAX_TTL,
    ) -> DynamicQueryResult:
        """Issue a query with dynamic deepening, as a modern client does."""
        return dynamic_query(
            self.topology,
            self.indexes,
            self.topology.ultrapeer_of(origin),
            terms,
            desired_results=desired_results,
            max_ttl=max_ttl,
        )

    def first_result_latency(self, result: DynamicQueryResult) -> float:
        return self.latency_model.first_result_latency(result)

    # ------------------------------------------------------------------
    # BrowseHost and bookkeeping
    # ------------------------------------------------------------------

    def all_results_for(self, terms: list[str]) -> list[SharedFile]:
        """Oracle: every matching replica in the whole network.

        Used by measurement code to compute true recall denominators —
        this is what the paper approximates with the union-of-30.
        """
        if self.placement is None:
            return []
        lowered = [term.lower() for term in terms]
        return [
            file
            for files in self.placement.files_by_node.values()
            for file in files
            if all(term in file.filename.lower() for term in lowered)
        ]

    def random_ultrapeers(self, count: int) -> list[int]:
        """A uniform sample of distinct ultrapeers (measurement vantages)."""
        count = min(count, len(self.topology.ultrapeers))
        return self.rng.sample(self.topology.ultrapeers, count)
