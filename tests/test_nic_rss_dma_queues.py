"""Tests for RSS hashing, DMA models and the cycle account."""

import random
import struct

import pytest

from repro.cpu import CpuSpec, CycleAccount, XEON_5512U, XEON_6554S
from repro.fleet import steering as steering_module
from repro.fleet.steering import FleetSteering
from repro.nic import rss as rss_module
from repro.nic import (
    FULL_DMA,
    HEADER_ONLY_DMA,
    RssDistributor,
    toeplitz_hash,
)
from repro.packet import FlowKey, IPProto, build_udp
from repro.nic.rss import DEFAULT_RSS_KEY, flow_hash


def toeplitz_bitwise(data, key=DEFAULT_RSS_KEY):
    """The definition, bit by bit: what ``toeplitz_hash`` computed before
    it became table-driven, kept as the oracle."""
    result = 0
    key_bits = int.from_bytes(key, "big")
    total_key_bits = len(key) * 8
    bit_index = 0
    for byte in data:
        for bit in range(7, -1, -1):
            if byte & (1 << bit):
                shift = total_key_bits - 32 - bit_index
                result ^= (key_bits >> shift) & 0xFFFFFFFF
            bit_index += 1
    return result


def flow_hash_bitwise(key, rss_key=DEFAULT_RSS_KEY):
    data = struct.pack("!IIHH", key.src_ip, key.dst_ip, key.src_port, key.dst_port)
    return toeplitz_bitwise(data, rss_key)


class TestToeplitz:
    def test_known_vector(self):
        # Microsoft RSS verification vector: 66.9.149.187:2794 ->
        # 161.142.100.80:1766 hashes to 0x51ccc178 with the default key.
        data = struct.pack(
            "!IIHH",
            (66 << 24) | (9 << 16) | (149 << 8) | 187,
            (161 << 24) | (142 << 16) | (100 << 8) | 80,
            2794,
            1766,
        )
        assert toeplitz_hash(data) == 0x51CCC178

    def test_second_known_vector(self):
        # 199.92.111.2:14230 -> 65.69.140.83:4739 -> 0xc626b0ea
        data = struct.pack(
            "!IIHH",
            (199 << 24) | (92 << 16) | (111 << 8) | 2,
            (65 << 24) | (69 << 16) | (140 << 8) | 83,
            14230,
            4739,
        )
        assert toeplitz_hash(data) == 0xC626B0EA

    def test_key_too_short_rejected(self):
        with pytest.raises(ValueError):
            toeplitz_hash(b"\x01" * 16, key=b"\x00" * 8)

    def test_deterministic(self):
        key = FlowKey(IPProto.TCP, 1, 2, 3, 4)
        assert flow_hash(key) == flow_hash(key)

    def test_tables_agree_with_the_bitwise_definition(self):
        rng = random.Random(0x7E0)
        for _ in range(1500):
            key = rng.randbytes(rng.randint(16, 52))
            data = rng.randbytes(rng.randint(0, len(key) - 4))
            assert toeplitz_hash(data, key) == toeplitz_bitwise(data, key)

    def test_key_must_cover_the_last_window(self):
        key = bytes(range(16))
        assert toeplitz_hash(b"\xff" * 12, key) == toeplitz_bitwise(b"\xff" * 12, key)
        with pytest.raises(ValueError):
            toeplitz_hash(b"\xff" * 13, key)

    def test_different_keys_never_share_tables(self, monkeypatch):
        other = bytes(reversed(DEFAULT_RSS_KEY))
        flows = [FlowKey(IPProto.TCP, 0x0A000001 + i, 1000 + i, 0x0A000002, 443)
                 for i in range(300)]
        # Interleave the keys so each one's tables are live while the
        # other hashes.
        distributors = [RssDistributor(8, key=k) for k in (DEFAULT_RSS_KEY, other)]
        steerings = [FleetSteering(4, key=k) for k in (DEFAULT_RSS_KEY, other)]
        queues = [[d.queue_for(flow) for d in distributors] for flow in flows]
        shards = [[s.shard_for(flow) for s in steerings] for flow in flows]
        assert any(a != b for a, b in queues) and any(a != b for a, b in shards)

        monkeypatch.setattr(rss_module, "flow_hash", flow_hash_bitwise)
        monkeypatch.setattr(steering_module, "flow_hash", flow_hash_bitwise)
        distributors = [RssDistributor(8, key=k) for k in (DEFAULT_RSS_KEY, other)]
        steerings = [FleetSteering(4, key=k) for k in (DEFAULT_RSS_KEY, other)]
        assert queues == [[d.queue_for(flow) for d in distributors] for flow in flows]
        assert shards == [[s.shard_for(flow) for s in steerings] for flow in flows]


class TestRssDistributor:
    def test_flows_spread_across_queues(self):
        rss = RssDistributor(queues=8)
        flows = [FlowKey(IPProto.TCP, 0x0A000001 + i, 1000 + i, 0x0A000002, 80)
                 for i in range(800)]
        counts = rss.distribution(flows)
        assert sum(counts) == 800
        assert all(count > 0 for count in counts)
        # Toeplitz over random-ish tuples is roughly balanced.
        assert max(counts) < 3 * min(counts)

    def test_same_flow_always_same_queue(self):
        rss = RssDistributor(queues=4)
        flow = FlowKey(IPProto.UDP, 123, 456, 789, 80)
        assert rss.queue_for(flow) == rss.queue_for(flow)

    def test_invalid_queue_count(self):
        with pytest.raises(ValueError):
            RssDistributor(queues=0)


class TestDmaModels:
    def packet(self, payload_len=1460):
        return build_udp("1.1.1.1", "2.2.2.2", 1, 2, payload=b"p" * payload_len)

    def test_header_only_moves_far_fewer_bytes(self):
        packet = self.packet(8972)
        assert HEADER_ONLY_DMA.mem_bytes(packet) < FULL_DMA.mem_bytes(packet) / 5

    def test_full_dma_scales_with_payload(self):
        small, large = self.packet(100), self.packet(9000)
        assert FULL_DMA.mem_bytes(large) > FULL_DMA.mem_bytes(small) * 10

    def test_header_only_uses_nic_memory(self):
        packet = self.packet(1000)
        assert HEADER_ONLY_DMA.nic_memory_bytes(packet) == 1000
        assert FULL_DMA.nic_memory_bytes(packet) == 0


class TestCycleAccount:
    def test_charge_and_breakdown(self):
        account = CycleAccount()
        account.charge(100, category="rx")
        account.charge(50, mem_bytes=1000, category="rx")
        account.charge(25, category="tx")
        assert account.cycles == 175
        assert account.mem_bytes == 1000
        assert account.breakdown == {"rx": 150, "tx": 25}

    def test_cpu_bound_throughput(self):
        account = CycleAccount()
        account.charge(1000)
        account.note_packet(1000)
        # 1 cycle per goodput byte on a 1 GHz core -> 8 Gbps.
        spec = CpuSpec("test", clock_hz=1e9, cores=4, mem_bw_bytes_per_sec=1e18)
        assert account.sustainable_goodput_bps(spec, cores=1) == pytest.approx(8e9)
        assert account.sustainable_goodput_bps(spec, cores=4) == pytest.approx(32e9)

    def test_memory_bound_throughput(self):
        account = CycleAccount()
        account.charge(1, mem_bytes=10_000)
        account.note_packet(1000)
        spec = CpuSpec("test", clock_hz=1e18, cores=1, mem_bw_bytes_per_sec=1e9)
        # 10 memory bytes per goodput byte -> 100 MB/s goodput -> 800 Mbps.
        assert account.sustainable_goodput_bps(spec) == pytest.approx(0.8e9)

    def test_min_of_bounds_wins(self):
        account = CycleAccount()
        account.charge(1000, mem_bytes=10_000)
        account.note_packet(1000)
        cpu_tight = CpuSpec("cpu", 1e9, 1, 1e18)
        mem_tight = CpuSpec("mem", 1e18, 1, 1e9)
        assert account.sustainable_goodput_bps(cpu_tight) < account.sustainable_goodput_bps(
            CpuSpec("fast", 1e18, 1, 1e18)
        )
        assert account.sustainable_goodput_bps(mem_tight) < account.sustainable_goodput_bps(
            CpuSpec("fast", 1e18, 1, 1e18)
        )

    def test_too_many_cores_rejected(self):
        with pytest.raises(ValueError):
            XEON_6554S.cycles_per_second(cores=37)

    def test_merge_accounts(self):
        a, b = CycleAccount(), CycleAccount()
        a.charge(10, category="x")
        a.note_packet(100)
        b.charge(20, mem_bytes=5, category="x")
        b.note_packet(200)
        a.merge(b)
        assert a.cycles == 30 and a.mem_bytes == 5
        assert a.packets == 2 and a.goodput_bytes == 300
        assert a.breakdown["x"] == 30

    def test_utilization(self):
        account = CycleAccount()
        account.charge(1000)
        account.note_packet(1000)  # 1 cycle/byte
        spec = CpuSpec("test", clock_hz=1e9, cores=1, mem_bw_bytes_per_sec=1e18)
        # 4 Gbps goodput -> 0.5e9 B/s -> 0.5e9 cycles -> 50 %.
        assert account.utilization_at_goodput(spec, 4e9) == pytest.approx(0.5)

    def test_presets_sane(self):
        assert XEON_6554S.cores == 36
        assert XEON_5512U.clock_hz < XEON_6554S.clock_hz

    def test_empty_account_yields_zero(self):
        assert CycleAccount().sustainable_goodput_bps(XEON_6554S) == 0.0
