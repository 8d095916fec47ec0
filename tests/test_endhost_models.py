"""Tests for the end-host receiver cost model."""

import random

import pytest

from repro.core import encode_caravan
from repro.cpu import XEON_5512U
from repro.nic import ReceiverConfig, ReceiverModel
from repro.packet import build_tcp, build_udp
from repro.workload import make_tcp_sources, make_udp_sources, interleave


def tcp_arrivals(payload=1448, flows=1, total=10000, mean_run=24.0, seed=5):
    sources = make_tcp_sources(flows, payload)
    return [p for p, _ in interleave(sources, total, random.Random(seed), mean_run)]


def tput(model):
    return model.account.sustainable_goodput_bps(XEON_5512U, cores=1)


class TestReceiverModel:
    def test_all_payload_delivered(self):
        arrivals = tcp_arrivals(total=2000)
        model = ReceiverModel(ReceiverConfig(lro=True, gro=True))
        model.process(arrivals)
        delivered = sum(len(p.payload) for p in model.delivered)
        assert delivered == 2000 * 1448

    def test_lro_cheaper_than_gro_cheaper_than_none(self):
        results = {}
        for name, config in [
            ("none", ReceiverConfig()),
            ("gro", ReceiverConfig(gro=True)),
            ("lro", ReceiverConfig(lro=True)),
        ]:
            model = ReceiverModel(config)
            model.process(tcp_arrivals(total=5000))
            results[name] = tput(model)
        assert results["none"] < results["gro"] < results["lro"]

    def test_jumbo_without_offloads_beats_1500_without(self):
        small = ReceiverModel(ReceiverConfig())
        small.process(tcp_arrivals(payload=1448, total=6000))
        large = ReceiverModel(ReceiverConfig())
        large.process(tcp_arrivals(payload=8948, total=1000))
        assert tput(large) > 2 * tput(small)

    def test_aggregation_factor_reflects_merging(self):
        model = ReceiverModel(ReceiverConfig(lro=True, poll_batch=40))
        model.process(tcp_arrivals(total=4000))
        assert model.aggregation_factor > 10

    def test_concurrency_hurts_1500_more_than_9000(self):
        def run(payload, flows):
            model = ReceiverModel(ReceiverConfig(lro=True, gro=True, poll_batch=40))
            model.process(tcp_arrivals(payload=payload, flows=flows,
                                       total=12000, mean_run=1.0))
            return tput(model)

        drop_1500 = 1 - run(1448, 4) / run(1448, 1)
        drop_9000 = 1 - run(8948, 4) / run(8948, 1)
        assert drop_1500 > 0.2
        assert drop_9000 < 0.1

    def test_busy_polling_amortizes_wakeups(self):
        arrivals = tcp_arrivals(flows=32, total=8000, mean_run=1.0)
        interrupt = ReceiverModel(ReceiverConfig())
        interrupt.process(list(arrivals))
        polling = ReceiverModel(ReceiverConfig(busy_polling=True))
        polling.process(list(arrivals))
        assert tput(polling) > 1.5 * tput(interrupt)
        assert "wakeup" not in polling.account.breakdown

    def test_pure_acks_priced_separately(self):
        acks = [build_tcp("1.1.1.1", "2.2.2.2", 1, 2, seq=i) for i in range(100)]
        model = ReceiverModel(ReceiverConfig())
        model.process(acks)
        assert model.account.breakdown["ack"] > 0
        assert model.account.goodput_bytes == 0

    def test_caravan_bundle_parse_charged(self):
        sources = make_udp_sources(1, 1200)
        [source] = sources
        bundle = encode_caravan([source.next_packet() for _ in range(6)])
        model = ReceiverModel(ReceiverConfig(busy_polling=True))
        model.process([bundle])
        assert model.account.breakdown["parse"] == pytest.approx(6 * 50.0)

    def test_caravan_cheaper_than_loose_datagrams(self):
        sources = make_udp_sources(1, 1200)
        loose = [sources[0].next_packet() for _ in range(60)]
        bundles = [
            encode_caravan([sources[0].next_packet() for _ in range(6)])
            for _ in range(10)
        ]
        loose_model = ReceiverModel(ReceiverConfig(busy_polling=True))
        loose_model.process(loose)
        bundle_model = ReceiverModel(ReceiverConfig(busy_polling=True))
        bundle_model.process(bundles)
        assert tput(bundle_model) > 1.5 * tput(loose_model)

