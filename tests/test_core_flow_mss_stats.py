"""Tests for the flow table, classifier, MSS clamp, config, and stats."""

import pytest

from repro.core import (
    Bound,
    FlowTable,
    GatewayConfig,
    GatewayStats,
    GatewayWorker,
    MssClamp,
)
from repro.core.caravan import encode_caravan
from repro.packet import FlowKey, IPProto, TCPFlags, build_tcp, build_udp


class TestFlowTable:
    def key(self, i=0):
        return FlowKey(IPProto.TCP, 100 + i, 1, 200, 2)

    def test_lookup_creates_once(self):
        table = FlowTable()
        a = table.lookup(self.key(), now=1.0)
        b = table.lookup(self.key(), now=2.0)
        assert a is b
        assert table.misses == 1
        assert table.lookups == 2

    def test_lru_eviction(self):
        evicted = []
        table = FlowTable(capacity=2, on_evict=evicted.append)
        table.lookup(self.key(0))
        table.lookup(self.key(1))
        table.lookup(self.key(0))  # refresh 0
        table.lookup(self.key(2))  # evicts 1
        assert table.evictions == 1
        assert evicted[0].key == self.key(1)
        assert self.key(0) in table

    def test_expire_idle(self):
        table = FlowTable()
        state = table.lookup(self.key(), now=0.0)
        state.touch(100, now=0.0)
        assert table.expire_idle(now=100.0, idle_timeout=30.0) == 1
        assert len(table) == 0

    def test_peek_does_not_create(self):
        table = FlowTable()
        assert table.peek(self.key()) is None
        assert len(table) == 0

    def test_expire_idle_counts_as_eviction(self):
        # Regression: expiry used to fire on_evict without bumping the
        # evictions counter, so idle churn was invisible in metrics.
        evicted = []
        table = FlowTable(on_evict=evicted.append)
        table.lookup(self.key(0), now=0.0)
        table.lookup(self.key(1), now=0.0)
        table.lookup(self.key(2), now=50.0)
        assert table.expire_idle(now=60.0, idle_timeout=30.0) == 2
        assert table.evictions == 2
        assert [state.key for state in evicted] == [self.key(0), self.key(1)]
        assert self.key(2) in table

    def test_adopt_preserves_flow_state(self):
        table = FlowTable()
        state = table.lookup(self.key(), now=1.0)
        state.touch(500, now=2.0)
        state.is_elephant = True
        clone = FlowTable()
        clone.adopt(table.snapshot())
        restored = clone.peek(self.key())
        assert restored.bytes == 500
        assert restored.is_elephant
        assert restored.last_seen == 2.0

    def test_adopt_merges_without_clobbering_live_state(self):
        donor = FlowTable()
        for i in range(3):
            donor.lookup(self.key(i), now=0.0)
        receiver = FlowTable(capacity=3)
        live = receiver.lookup(self.key(0), now=5.0)
        live.touch(999, now=5.0)
        added = receiver.adopt(donor.snapshot())
        assert added == 2  # key(0) already present, kept
        assert receiver.peek(self.key(0)).bytes == 999
        assert len(receiver) == 3

    def test_adopt_respects_capacity(self):
        donor = FlowTable()
        for i in range(5):
            donor.lookup(self.key(i), now=float(i))
        evicted = []
        receiver = FlowTable(capacity=2, on_evict=evicted.append)
        receiver.adopt(donor.snapshot())
        assert len(receiver) == 2
        assert receiver.evictions == 3
        # LRU-first: the three oldest records are the ones trimmed, and
        # they leave through on_evict like any capacity eviction.
        assert [state.key for state in evicted] == [self.key(i) for i in range(3)]
        assert self.key(3) in receiver and self.key(4) in receiver

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            FlowTable(capacity=0)


class TestClassifier:
    def observe(self, table, now):
        packet = build_udp("1.0.0.1", "2.0.0.2", 1000, 80, payload=b"x" * 100)
        return table.observe(packet.flow_key(), packet.total_len, now=now)

    def test_promotion_after_threshold(self):
        table = FlowTable(threshold_packets=4, window=1.0)
        verdicts = [self.observe(table, now=0.001 * i).is_elephant for i in range(5)]
        assert verdicts == [False, False, False, True, True]
        assert table.promotions == 1
        state = table.peek(FlowKey(IPProto.UDP, 0x01000001, 1000, 0x02000002, 80))
        assert (state.packets, state.bytes) == (5, 5 * 128)
        assert (table.lookups, table.misses) == (5, 1)

    def test_sporadic_flow_stays_mouse(self):
        table = FlowTable(threshold_packets=4, window=0.01)
        # One packet every 100 ms: the window resets between arrivals.
        for i in range(20):
            state = self.observe(table, now=0.1 * i)
        assert not state.is_elephant

    def test_promotion_is_sticky(self):
        table = FlowTable(threshold_packets=2, window=0.01)
        self.observe(table, now=0.0)
        state = self.observe(table, now=0.001)
        assert state.is_elephant
        # Quiet period, then one packet: still an elephant.
        state = self.observe(table, now=5.0)
        assert state.is_elephant


class TestMssClamp:
    def syn(self, mss, flags=TCPFlags.SYN):
        return build_tcp("1.1.1.1", "2.2.2.2", 1, 2, flags=flags, mss=mss)

    def test_inbound_raises_mss(self):
        clamp = MssClamp(GatewayConfig(imtu=9000, emtu=1500))
        packet = self.syn(1460)
        assert clamp.process(packet, Bound.INBOUND)
        assert packet.tcp.mss_option == 8960
        assert packet.meta["mss_raised_from"] == 1460

    def test_inbound_leaves_larger_mss(self):
        clamp = MssClamp(GatewayConfig(imtu=9000, emtu=1500))
        packet = self.syn(9200)
        assert not clamp.process(packet, Bound.INBOUND)
        assert packet.tcp.mss_option == 9200

    def test_outbound_caps_mss(self):
        clamp = MssClamp(GatewayConfig(imtu=9000, emtu=1500))
        packet = self.syn(8960)
        assert clamp.process(packet, Bound.OUTBOUND)
        assert packet.tcp.mss_option == 1460

    def test_synack_also_rewritten(self):
        clamp = MssClamp(GatewayConfig())
        packet = self.syn(1460, flags=TCPFlags.SYN | TCPFlags.ACK)
        assert clamp.process(packet, Bound.INBOUND)

    def test_data_packets_untouched(self):
        clamp = MssClamp(GatewayConfig())
        packet = build_tcp("1.1.1.1", "2.2.2.2", 1, 2, payload=b"data", mss=1460)
        assert not clamp.process(packet, Bound.INBOUND)

    def test_syn_without_mss_untouched(self):
        clamp = MssClamp(GatewayConfig())
        packet = build_tcp("1.1.1.1", "2.2.2.2", 1, 2, flags=TCPFlags.SYN)
        assert not clamp.process(packet, Bound.INBOUND)


class TestGatewayConfig:
    def test_defaults_are_paper_px(self):
        config = GatewayConfig()
        assert config.imtu == 9000 and config.emtu == 1500
        assert config.delayed_merge and config.mss_clamp
        assert not config.header_only_dma and not config.baseline_gro

    def test_validation(self):
        with pytest.raises(ValueError):
            GatewayConfig(imtu=1500, emtu=1500)
        with pytest.raises(ValueError):
            GatewayConfig(imtu=9000, emtu=500)

    def test_payload_budgets(self):
        config = GatewayConfig(imtu=9000, emtu=1500)
        assert config.imtu_tcp_payload == 8960
        assert config.emtu_tcp_payload == 1460
        assert config.imtu_udp_payload == 8972


class TestGatewayStats:
    def test_conversion_yield(self):
        stats = GatewayStats()
        for _ in range(9):
            stats.note_inbound_data_packet(9000, imtu=9000)
        stats.note_inbound_data_packet(1500, imtu=9000)
        assert stats.conversion_yield == pytest.approx(0.9)
        assert stats.conversion_yield_bytes == pytest.approx(81000 / 82500)

    def test_slack_tolerance(self):
        stats = GatewayStats()
        stats.note_inbound_data_packet(8950, imtu=9000, slack=64)
        assert stats.conversion_yield == 1.0

    def test_empty_yield_zero(self):
        assert GatewayStats().conversion_yield == 0.0

    def test_merge_aggregates(self):
        a, b = GatewayStats(), GatewayStats()
        a.note_inbound_data_packet(9000, imtu=9000)
        b.note_inbound_data_packet(1500, imtu=9000)
        b.rx_packets = 7
        a.merge(b)
        assert a.inbound_data_packets == 2
        assert a.conversion_yield == 0.5
        assert a.rx_packets == 7
        assert a.inbound_size_histogram == {9000: 1, 1500: 1}

    def test_merge_carries_every_field(self):
        # A counter added to the dataclass must reach every aggregate
        # and checkpoint without anyone remembering to list it.
        other = GatewayStats()
        for value, (name, default) in enumerate(vars(GatewayStats()).items(), start=1):
            if isinstance(default, dict):
                setattr(other, name, {value: value})
            else:
                assert isinstance(default, int), f"merge has no rule for {name}"
                setattr(other, name, value)
        total = GatewayStats()
        total.merge(other)
        assert vars(total) == vars(other)
        total.merge(other)
        for name, value in vars(other).items():
            if isinstance(value, dict):
                assert getattr(total, name) == {k: 2 * v for k, v in value.items()}, name
            else:
                assert getattr(total, name) == 2 * value, name

    def test_conservation_errors_balanced_and_not(self):
        stats = GatewayStats()
        stats.tcp_payload_in = 100
        stats.tcp_payload_out = 60
        assert stats.conservation_errors(pending_tcp_bytes=40) == {}
        assert stats.conservation_errors(pending_tcp_bytes=0) == {"tcp_bytes": 40}
        stats.udp_datagrams_in = 10
        stats.udp_datagrams_out = 7
        stats.udp_datagrams_malformed = 2
        assert stats.conservation_errors(
            pending_tcp_bytes=40, pending_datagrams=1
        ) == {}
        assert stats.conservation_errors(
            pending_tcp_bytes=40, pending_datagrams=0
        ) == {"udp_datagrams": 1}


class TestWorkerConservation:
    """The conservation identities must hold through every worker path —
    including the ones that bypass or pressure the merge engines:
    the NIC hairpin, header-only-DMA fallback, and context eviction."""

    def check(self, worker):
        errors = worker.stats.conservation_errors(
            pending_tcp_bytes=worker.merge.pending_bytes(),
            pending_datagrams=worker.caravan_merge.pending_packets(),
        )
        assert errors == {}, errors

    def tcp_data(self, seq, payload_len=1460, src_port=5000):
        return build_tcp(
            "8.0.0.1",
            "10.0.0.9",
            src_port,
            80,
            seq=seq,
            flags=TCPFlags.ACK,
            payload=bytes(payload_len),
        )

    def test_hairpinned_mice_stay_balanced(self):
        """Mice bypass the merge engine entirely; the identity must hold
        with both payload counters untouched."""
        worker = GatewayWorker(GatewayConfig(elephant_threshold_packets=1000))
        for i in range(5):
            out = worker.process(self.tcp_data(seq=1 + 1460 * i), Bound.INBOUND, now=i * 1e-3)
            assert out  # forwarded via the hairpin, not buffered
        assert worker.stats.hairpinned == 5
        assert worker.stats.tcp_payload_in == 0  # never entered the engine
        self.check(worker)

    def test_elephants_balance_through_merge_and_flush(self):
        worker = GatewayWorker(GatewayConfig(elephant_threshold_packets=2))
        for i in range(12):
            worker.process(self.tcp_data(seq=1 + 1460 * i), Bound.INBOUND, now=i * 1e-5)
            self.check(worker)  # identity holds at every instant
        assert worker.merge.pending_bytes() > 0  # a partial jumbo is buffered
        worker.end_batch(now=1.0)
        assert worker.merge.pending_bytes() == 0
        self.check(worker)

    def test_hdo_fallback_path_keeps_identity(self):
        """With header-only DMA and a tiny on-NIC budget every packet
        falls back to full DMA — the counters must not fork."""
        worker = GatewayWorker(
            GatewayConfig(
                elephant_threshold_packets=1, header_only_dma=True
            )
        )
        worker.nic_memory_bytes = 100  # force the fallback immediately
        for i in range(8):
            worker.process(self.tcp_data(seq=1 + 1460 * i), Bound.INBOUND, now=i * 1e-5)
        assert worker.stats.hdo_fallbacks >= 7
        self.check(worker)
        worker.end_batch(now=1.0)
        self.check(worker)

    def test_eviction_storm_flushes_not_drops(self):
        """With one merge context, interleaved flows evict each other
        constantly; evicted contexts must flush their bytes, not leak."""
        worker = GatewayWorker(GatewayConfig(elephant_threshold_packets=1))
        worker.merge.max_contexts = 1
        for i in range(10):
            port = 5000 + (i % 2)  # two flows fight over one context
            worker.process(
                self.tcp_data(seq=1 + 1460 * (i // 2), src_port=port),
                Bound.INBOUND,
                now=i * 1e-5,
            )
            self.check(worker)
        worker.end_batch(now=1.0)
        self.check(worker)
        assert worker.stats.tcp_payload_in == 10 * 1460
        assert worker.stats.tcp_payload_out == 10 * 1460

    def test_caravan_paths_balance(self):
        worker = GatewayWorker(GatewayConfig(elephant_threshold_packets=1))
        datagrams = [
            build_udp("8.0.0.1", "10.0.0.9", 6000, 4433, payload=bytes(1000))
            for _ in range(4)
        ]
        # Inbound: plain datagrams accumulate toward a caravan.
        for i, datagram in enumerate(datagrams):
            worker.process(datagram, Bound.INBOUND, now=i * 1e-5)
            self.check(worker)
        worker.end_batch(now=1.0)
        self.check(worker)
        # Outbound: a caravan is opened back into datagrams.
        caravan = encode_caravan(
            [
                build_udp("10.0.0.9", "8.0.0.1", 4433, 6000, payload=bytes(1000))
                for _ in range(3)
            ]
        )
        out = worker.process(caravan, Bound.OUTBOUND, now=2.0)
        assert len(out) == 3
        assert worker.stats.caravans_opened == 1
        self.check(worker)

    def test_malformed_caravan_counts_as_malformed_not_lost(self):
        worker = GatewayWorker(GatewayConfig(elephant_threshold_packets=1))
        caravan = encode_caravan(
            [
                build_udp("10.0.0.9", "8.0.0.1", 4433, 6000, payload=bytes(500))
                for _ in range(2)
            ]
        )
        caravan.payload = caravan.payload[:-200]  # damage the last record
        caravan.udp.length = 8 + len(caravan.payload)
        caravan.ip.total_length = caravan.ip.header_len + caravan.udp.length
        out = worker.process(caravan, Bound.OUTBOUND, now=0.0)
        assert out == []
        assert worker.stats.malformed_caravans == 1
        assert worker.stats.udp_datagrams_malformed >= 1
        self.check(worker)
