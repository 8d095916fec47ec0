"""Tests for links, queues, netem, and interfaces."""

import random

import pytest

from repro.packet import Packet, build_udp
from repro.sim import Interface, Netem, Node, Simulator, connect


class Sink(Node):
    """Collects everything delivered to it."""

    def __init__(self, sim, name="sink"):
        super().__init__(sim, name)
        self.received = []

    def receive(self, packet, interface):
        self.received.append((self.sim.now, packet))


def make_pair(sim, **link_kwargs):
    a, b = Sink(sim, "a"), Sink(sim, "b")
    ia = a.add_interface(1, mtu=link_kwargs.get("mtu", 1500))
    ib = b.add_interface(2, mtu=link_kwargs.get("mtu", 1500))
    links = connect(sim, ia, ib, **link_kwargs)
    return a, b, ia, ib, links


def udp(total_len=1500):
    return build_udp("10.0.0.1", "10.0.0.2", 1, 2, payload=b"\0" * (total_len - 28))


def test_delivery_latency_is_serialization_plus_propagation():
    sim = Simulator()
    _a, b, ia, _ib, _ = make_pair(sim, bandwidth_bps=1e9, delay=1e-3)
    packet = udp(1500)
    ia.send(packet)
    sim.run()
    arrival = b.received[0][0]
    expected = packet.wire_len * 8 / 1e9 + 1e-3
    assert arrival == pytest.approx(expected)


def test_back_to_back_packets_serialize_sequentially():
    sim = Simulator()
    _a, b, ia, _ib, _ = make_pair(sim, bandwidth_bps=1e9, delay=0.0)
    first, second = udp(1500), udp(1500)
    ia.send(first)
    ia.send(second)
    sim.run()
    gap = b.received[1][0] - b.received[0][0]
    assert gap == pytest.approx(first.wire_len * 8 / 1e9)


def test_oversized_packet_dropped_with_mtu_counter():
    sim = Simulator()
    _a, b, ia, _ib, (forward, _) = make_pair(sim, mtu=1500)
    assert not ia.send(udp(1501))
    sim.run()
    assert b.received == []
    assert forward.stats.dropped_mtu == 1


def test_queue_overflow_drops():
    sim = Simulator()
    _a, b, ia, _ib, (forward, _) = make_pair(sim, bandwidth_bps=1e6, queue_bytes=3000)
    results = [ia.send(udp(1500)) for _ in range(5)]
    sim.run()
    assert results.count(False) > 0
    assert forward.stats.dropped_queue > 0
    assert len(b.received) == results.count(True)


def test_netem_loss_drops_fraction():
    sim = Simulator()
    netem = Netem(loss=0.5)
    _a, b, ia, _ib, (forward, _) = make_pair(
        sim, bandwidth_bps=100e9, netem=netem, rng=random.Random(7)
    )
    for _ in range(400):
        ia.send(udp(100))
    sim.run()
    delivered = len(b.received)
    assert 120 < delivered < 280  # ~200 expected
    assert forward.stats.dropped_loss == 400 - delivered


def test_netem_adds_delay():
    sim = Simulator()
    netem = Netem(delay=0.010)
    _a, b, ia, _ib, _ = make_pair(sim, bandwidth_bps=100e9, delay=0.0, netem=netem)
    ia.send(udp(100))
    sim.run()
    assert b.received[0][0] >= 0.010


def test_netem_validation():
    with pytest.raises(ValueError):
        Netem(loss=1.5)
    with pytest.raises(ValueError):
        Netem(delay=-1)


def test_netem_wan_profile_matches_paper():
    profile = Netem.wan()
    assert profile.delay == pytest.approx(0.005)  # 10 ms end-to-end
    assert profile.loss == pytest.approx(0.0001)  # 0.01 %


def test_interface_counters():
    sim = Simulator()
    _a, b, ia, ib, _ = make_pair(sim)
    packet = udp(500)
    ia.send(packet)
    sim.run()
    assert ia.tx_packets == 1 and ia.tx_bytes == 500
    assert ib.rx_packets == 1 and ib.rx_bytes == 500


def test_send_without_link_returns_false():
    sim = Simulator()
    node = Sink(sim)
    interface = node.add_interface(1)
    assert not interface.send(udp(100))


def test_bidirectional_traffic():
    sim = Simulator()
    a, b, ia, ib, _ = make_pair(sim)
    ia.send(udp(100))
    ib.send(udp(200))
    sim.run()
    assert len(a.received) == 1 and len(b.received) == 1
