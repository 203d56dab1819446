"""Unit tests for the wire-cost model."""

import pytest

from repro.common.units import (
    BandwidthMeter,
    DEFAULT_COST_MODEL,
    MessageCost,
)


class TestMessageCost:
    def test_addition(self):
        total = MessageCost(1, 100) + MessageCost(2, 50)
        assert total == MessageCost(3, 150)

    def test_kilobytes(self):
        assert MessageCost(1, 2048).kilobytes == 2.0


class TestCostModel:
    def test_tuple_bytes_includes_overhead(self):
        model = DEFAULT_COST_MODEL
        assert model.tuple_bytes(50) == int((model.tuple_base_bytes + 50) * 1.6) == 560

    def test_item_tuple_grows_with_filename(self):
        short = DEFAULT_COST_MODEL.item_tuple_bytes("a.mp3")
        long = DEFAULT_COST_MODEL.item_tuple_bytes("a much longer filename.mp3")
        assert long > short

    def test_inverted_cache_costs_more_than_inverted(self):
        keyword = "toxic"
        filename = "britney spears - toxic.mp3"
        assert DEFAULT_COST_MODEL.inverted_cache_tuple_bytes(
            keyword, filename
        ) > DEFAULT_COST_MODEL.inverted_tuple_bytes(keyword)

    def test_message_bytes_adds_header(self):
        assert DEFAULT_COST_MODEL.message_bytes(100) == (
            100 + DEFAULT_COST_MODEL.header_bytes
        )

    def test_routed_bytes_charges_payload_once(self):
        model = DEFAULT_COST_MODEL
        assert model.routed_bytes(100, hops=3) == 100 + 3 * model.header_bytes == 280

    def test_routed_bytes_minimum_one_hop(self):
        assert DEFAULT_COST_MODEL.routed_bytes(100, hops=0) == 160

    def test_default_publish_cost_magnitude(self):
        """One file with ~4 keywords should cost a few KB, as in Section 7."""
        filename = "darel montia - klorena velid.mp3"
        keywords = ["darel", "montia", "klorena", "velid"]
        payload = DEFAULT_COST_MODEL.item_tuple_bytes(filename) + sum(
            DEFAULT_COST_MODEL.inverted_tuple_bytes(k) for k in keywords
        )
        assert 1500 < payload < 6000


class TestBandwidthMeter:
    def test_charge_accumulates(self):
        meter = BandwidthMeter()
        meter.charge("a", 2, 100)
        meter.charge("b", 1, 50)
        assert meter.messages == 3
        assert meter.bytes == 150

    def test_category_breakdown(self):
        meter = BandwidthMeter()
        meter.charge("x", 1, 10)
        meter.charge("x", 1, 20)
        assert meter.by_category["x"] == MessageCost(2, 30)
