"""Gnutella network facade.

Glues topology, content placement and the latency model into one object
experiments can drive.

The network owns the content plane everything above it reads: the one
filename matcher that resolves a query's names, and each replica's hosting
ultrapeer. A query's answer is computed from those by depth: the replicas
of its matching names, each at its host's hop depth from the querying
ultrapeer (:meth:`GnutellaNetwork.replica_depths` over
:func:`repro.gnutella.measurement.bfs_depths`), cut at the TTL a dynamic
query stops at (:func:`repro.gnutella.measurement.dynamic_stop_ttl`), and
timed by :meth:`GnutellaLatencyModel.arrival_for_depth`.
"""

from __future__ import annotations

import math
import random
from collections.abc import Container
from itertools import compress, repeat

from repro.common.rng import make_rng
from repro.gnutella.index import FilenameMatcher
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
        """Build topology and place ``library``'s replicas."""
        rng = make_rng(rng)
        config = config or TopologyConfig()
        topology = build_topology(config)
        network = cls(topology, rng=rng)
        placement = library.place(topology.all_nodes(), rng=rng)
        network.load_placement(placement)
        return network

    def load_placement(self, placement: Placement) -> None:
        """Host every replica at the ultrapeer responsible for its node.

        Leaves publish their file lists to their parent ultrapeer;
        ultrapeers answer for their own files.
        """
        self.placement = placement
        for filename in placement.replicas_by_filename:
            self.matcher.add(filename)
        for filename, replicas in placement.replicas_by_filename.items():
            self._replica_hosts[filename] = [self._host_of(replica.node_id) for replica in replicas]

    def _host_of(self, node: int) -> int | None:
        """The ultrapeer that answers for ``node``'s files (None: none does)."""
        if self.topology.is_ultrapeer(node):
            return node
        return self.topology.leaf_parent.get(node)

    # ------------------------------------------------------------------
    # Content plane
    # ------------------------------------------------------------------

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
        ``ultrapeers`` hosts, filename by filename in placement order
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
