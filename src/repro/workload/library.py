"""Content library: distinct items, replicas, and placement onto nodes.

A :class:`ContentLibrary` holds the distinct items in the network and the
replica count of each — the long-tailed distribution that drives every
result in the paper. :meth:`ContentLibrary.place` scatters replicas onto
nodes under the paper's model assumptions (replicas randomly distributed;
no two replicas of the same item on one node).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.common.errors import WorkloadError
from repro.common.rng import make_rng
from repro.common.zipf import long_tail_replica_counts, sample_power_law_int
from repro.workload.filenames import FilenameGenerator, Vocabulary


@dataclass(frozen=True)
class SharedFile:
    """One replica of an item, shared by one node."""

    filename: str
    filesize: int
    node_id: int

    @property
    def ip_address(self) -> str:
        """Synthetic stable address derived from the node id."""
        n = self.node_id
        return f"10.{(n >> 16) & 0xFF}.{(n >> 8) & 0xFF}.{n & 0xFF}"

    @property
    def port(self) -> int:
        return 6346  # the classic Gnutella port

    @property
    def result_key(self) -> tuple[str, int, int]:
        """Distinguishes results: (filename, host, filesize), per Section 4.2."""
        return (self.filename, self.node_id, self.filesize)


@dataclass(frozen=True)
class CatalogItem:
    """A distinct item: unique filename plus its network-wide replica count.

    ``family_terms`` names the leading term pair shared with sibling rare
    items (several rare files by the same obscure source); None for items
    with standalone filenames.
    """

    index: int
    filename: str
    filesize: int
    replication: int
    family_terms: tuple[str, str] | None = None


@dataclass
class Placement:
    """Replicas assigned to nodes: the network's content snapshot."""

    files_by_node: dict[int, list[SharedFile]] = field(default_factory=dict)
    replicas_by_filename: dict[str, list[SharedFile]] = field(default_factory=dict)

    @property
    def total_replicas(self) -> int:
        return sum(len(files) for files in self.files_by_node.values())


class ContentLibrary:
    """The distinct items of a simulated filesharing network."""

    def __init__(self, items: list[CatalogItem], vocabulary: Vocabulary):
        if not items:
            raise WorkloadError("content library needs at least one item")
        self.items = items
        self.vocabulary = vocabulary
        self.by_filename = {item.filename: item for item in items}
        self.family_items = [item for item in items if item.family_terms is not None]

    @classmethod
    def generate(
        cls,
        num_items: int,
        vocabulary_size: int = 2000,
        alpha: float | None = None,
        max_replicas: int = 400,
        singleton_fraction: float = 0.23,
        family_size: tuple[int, int] = (2, 24),
        family_fraction: float = 0.8,
        rng: random.Random | int | None = None,
    ) -> "ContentLibrary":
        """Generate a library matching the paper's replica-distribution shape.

        ``singleton_fraction`` pins the fraction of items with exactly one
        replica to the paper's 23% (Figure 10 at replica threshold 1).

        Rare items (one or two replicas) are partly organised into
        *families* whose filenames share a leading term pair — several
        rare files from the same obscure source. Family sizes are drawn
        from a small-skewed power law over the ``family_size`` range:
        many small families produce the paper's <=10-result rare queries,
        and a few large ones produce its mid-size result sets that are
        still dominated by barely-replicated files (the trace property
        behind Figure 4).
        """
        rng = make_rng(rng)
        vocabulary = Vocabulary(vocabulary_size, rng=rng)
        generator = FilenameGenerator(vocabulary, rng=rng)
        replica_counts = long_tail_replica_counts(
            num_items,
            alpha=alpha,
            max_replicas=max_replicas,
            singleton_fraction=singleton_fraction,
            rng=rng,
        )
        # Decide which items are family members: a slice of the rare tail.
        rare_indexes = [i for i, count in enumerate(replica_counts) if count <= 2]
        family_member_count = int(len(rare_indexes) * family_fraction)
        family_members = set(rare_indexes[len(rare_indexes) - family_member_count :])

        items: list[CatalogItem] = []
        pending_family: tuple[str, str] | None = None
        remaining_in_family = 0
        for index, count in enumerate(replica_counts):
            if index in family_members:
                if remaining_in_family == 0:
                    first, second = vocabulary.sample_tail_terms(2)
                    pending_family = (first, second)
                    low, high = family_size
                    remaining_in_family = low + sample_power_law_int(
                        rng, 1, max(1, high - low), alpha=1.0
                    ) - 1
                filename = generator.generate_with_prefix(
                    list(pending_family), extra_terms=rng.randint(1, 3)
                )
                remaining_in_family -= 1
                family = pending_family
            else:
                filename = generator.generate()
                family = None
            items.append(
                CatalogItem(
                    index=index,
                    filename=filename,
                    filesize=rng.randint(500_000, 8_000_000),
                    replication=count,
                    family_terms=family,
                )
            )
        return cls(items, vocabulary)

    @property
    def total_replicas(self) -> int:
        return sum(item.replication for item in self.items)

    def replica_distribution(self) -> dict[str, int]:
        """filename -> replica count, the model's R_i."""
        return {item.filename: item.replication for item in self.items}

    def place(self, node_ids: list[int], rng: random.Random | int | None = None) -> Placement:
        """Scatter replicas onto ``node_ids`` uniformly at random.

        Honours the model assumption that no node holds two replicas of the
        same item. Raises :class:`WorkloadError` if an item has more
        replicas than there are nodes.
        """
        rng = make_rng(rng)
        if not node_ids:
            raise WorkloadError("cannot place content on zero nodes")
        placement = Placement()
        for item in self.items:
            if item.replication > len(node_ids):
                raise WorkloadError(
                    f"item {item.filename!r} has {item.replication} replicas "
                    f"but only {len(node_ids)} nodes exist"
                )
            hosts = rng.sample(node_ids, item.replication)
            replicas = [
                SharedFile(filename=item.filename, filesize=item.filesize, node_id=host)
                for host in hosts
            ]
            placement.replicas_by_filename[item.filename] = replicas
            for replica in replicas:
                placement.files_by_node.setdefault(replica.node_id, []).append(replica)
        return placement
