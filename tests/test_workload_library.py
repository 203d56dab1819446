"""Tests for the content library and replica placement."""

import pytest

from repro.common.errors import WorkloadError
from repro.workload.library import ContentLibrary, SharedFile


@pytest.fixture(scope="module")
def small_library():
    return ContentLibrary.generate(
        num_items=400, vocabulary_size=400, max_replicas=50, rng=81
    )


class TestSharedFile:
    def test_ip_address_stable(self):
        file = SharedFile("x.mp3", 100, node_id=0x0A0B0C)
        assert file.ip_address == "10.10.11.12"

    def test_port_is_gnutella_default(self):
        assert SharedFile("x.mp3", 1, 1).port == 6346

    def test_result_key_distinguishes_hosts(self):
        a = SharedFile("x.mp3", 1, 1)
        b = SharedFile("x.mp3", 1, 2)
        assert a.result_key != b.result_key


class TestGenerate:
    def test_item_count(self, small_library):
        assert len(small_library.items) == 400

    def test_filenames_unique(self, small_library):
        names = [item.filename for item in small_library.items]
        assert len(set(names)) == 400

    def test_singleton_fraction_near_paper(self, small_library):
        singles = sum(1 for item in small_library.items if item.replication == 1)
        assert 0.15 < singles / 400 < 0.32

    def test_families_share_prefix(self, small_library):
        families = {}
        for item in small_library.family_items:
            families.setdefault(item.family_terms, []).append(item)
        assert families, "expected some family items"
        for terms, members in families.items():
            for member in members:
                assert member.filename.startswith(f"{terms[0]} {terms[1]} - ")

    def test_families_are_rare_items(self, small_library):
        for item in small_library.family_items:
            assert item.replication <= 2

    def test_replica_distribution_mapping(self, small_library):
        distribution = small_library.replica_distribution()
        assert len(distribution) == 400
        assert all(count >= 1 for count in distribution.values())

    def test_total_replicas(self, small_library):
        assert small_library.total_replicas == sum(
            item.replication for item in small_library.items
        )

    def test_empty_library_rejected(self, small_library):
        with pytest.raises(WorkloadError):
            ContentLibrary([], small_library.vocabulary)


class TestPlacement:
    def test_each_item_placed_fully(self, small_library):
        nodes = list(range(500))
        placement = small_library.place(nodes, rng=82)
        for item in small_library.items:
            assert len(placement.replicas_by_filename[item.filename]) == item.replication

    def test_no_node_holds_two_replicas_of_one_item(self, small_library):
        placement = small_library.place(list(range(500)), rng=82)
        for replicas in placement.replicas_by_filename.values():
            hosts = [replica.node_id for replica in replicas]
            assert len(hosts) == len(set(hosts))

    def test_placement_totals(self, small_library):
        placement = small_library.place(list(range(500)), rng=82)
        assert placement.total_replicas == small_library.total_replicas
        assert len(placement.replicas_by_filename) == 400

    def test_rejects_empty_node_list(self, small_library):
        with pytest.raises(WorkloadError):
            small_library.place([])

    def test_rejects_overcrowded_network(self, small_library):
        biggest = max(item.replication for item in small_library.items)
        with pytest.raises(WorkloadError):
            small_library.place(list(range(biggest - 1)))
