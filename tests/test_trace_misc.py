"""Tests for miscellaneous host/node APIs."""

import pytest

from repro.net import Host, Topology
from repro.packet import build_udp
from repro.sim import Simulator


class TestHostApis:
    def test_close_udp_stops_delivery(self):
        topo = Topology()
        a = topo.add_host("a")
        b = topo.add_host("b")
        topo.link(a, b)
        topo.build_routes()
        hits = []
        b.on_udp(9, lambda packet, host: hits.append(packet))
        a.send_udp(b.ip, 1, 9, b"one")
        topo.run()
        b.close_udp(9)
        a.send_udp(b.ip, 1, 9, b"two")
        topo.run()
        assert len(hits) == 1
        assert len(b.unclaimed) == 1

    def test_close_tcp_listener_entry(self):
        topo = Topology()
        a = topo.add_host("a")
        b = topo.add_host("b")
        topo.link(a, b)
        topo.build_routes()
        seen = []
        b.on_tcp(80, a.ip, 1234, seen.append)
        b.close_tcp(80, a.ip, 1234)
        from repro.packet import TCPFlags, build_tcp

        a.send(build_tcp(a.ip, b.ip, 1234, 80, flags=TCPFlags.ACK))
        topo.run()
        assert seen == []

    def test_host_without_interface_raises_on_ip(self):
        sim = Simulator()
        host = Host(sim, "lonely")
        with pytest.raises(RuntimeError):
            _ = host.ip

    def test_send_without_route_returns_false(self):
        sim = Simulator()
        host = Host(sim, "isolated")
        host.add_interface(42)
        packet = build_udp(42, 99, 1, 2)
        assert not host.send(packet)

    def test_interface_for_and_owns_address(self):
        sim = Simulator()
        host = Host(sim, "multi")
        host.add_interface(10)
        host.add_interface(20)
        assert host.interface_for(20).ip == 20
        assert host.owns_address(10)
        assert not host.owns_address(30)
