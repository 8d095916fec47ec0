"""Tests for routing tables, routers (fragmentation/ICMP), and hosts."""

import pytest

from repro.net import Host, Router, RoutingTable, Topology
from repro.packet import (
    ICMPMessage,
    ICMPType,
    build_icmp,
    build_udp,
    str_to_ip,
)
from repro.sim import Simulator


class TestRoutingTable:
    def make_iface(self, tag):
        sim = Simulator()
        host = Host(sim, f"h{tag}")
        return host.add_interface(tag)

    def test_longest_prefix_wins(self):
        table = RoutingTable()
        coarse = self.make_iface(1)
        fine = self.make_iface(2)
        table.add("10.0.0.0/8", coarse)
        table.add("10.1.0.0/16", fine)
        assert table.lookup(str_to_ip("10.1.2.3")).interface is fine
        assert table.lookup(str_to_ip("10.2.2.3")).interface is coarse

    def test_default_route(self):
        table = RoutingTable()
        default = self.make_iface(1)
        table.add_default(default)
        assert table.lookup(str_to_ip("8.8.8.8")).interface is default

    def test_no_route_returns_none(self):
        table = RoutingTable()
        assert table.lookup(str_to_ip("1.2.3.4")) is None

    def test_remove_prefix(self):
        table = RoutingTable()
        iface = self.make_iface(1)
        table.add("10.0.0.0/8", iface)
        assert table.remove_prefix("10.0.0.0/8") == 1
        assert len(table) == 0


def two_host_line(mtu_left=1500, mtu_right=1500, **router_kwargs):
    """client -- router -- server, with per-segment MTUs."""
    topo = Topology()
    client = topo.add_host("client")
    server = topo.add_host("server")
    router = topo.add_router("router", **router_kwargs)
    topo.link(client, router, mtu=mtu_left)
    topo.link(router, server, mtu=mtu_right)
    topo.build_routes()
    return topo, client, server, router


class TestRouterForwarding:
    def test_forwards_between_hosts(self):
        topo, client, server, router = two_host_line()
        received = []
        server.on_udp(9, lambda packet, host: received.append(packet))
        client.send_udp(server.ip, 1000, 9, b"hello")
        topo.run()
        assert len(received) == 1
        assert received[0].payload == b"hello"
        assert router.forwarded == 1

    def test_ttl_decrement(self):
        topo, client, server, _router = two_host_line()
        received = []
        server.on_udp(9, lambda packet, host: received.append(packet))
        client.send_udp(server.ip, 1000, 9, b"x")
        topo.run()
        assert received[0].ip.ttl == 63

    def test_ttl_exhaustion_drops(self):
        topo, client, server, router = two_host_line()
        packet = build_udp(client.ip, server.ip, 1, 9, payload=b"x", ttl=1)
        client.send(packet)
        topo.run()
        assert router.dropped == 1

    def test_fragments_on_smaller_egress_mtu(self):
        topo, client, server, _router = two_host_line(mtu_left=9000, mtu_right=1500)
        received = []
        server.on_udp(9, lambda packet, host: received.append(packet))
        client.send_udp(server.ip, 1000, 9, b"z" * 8000)
        topo.run()
        # Host reassembles; payload intact.
        assert received[0].payload == b"z" * 8000

    def test_df_packet_gets_icmp_frag_needed(self):
        topo, client, server, _router = two_host_line(mtu_left=9000, mtu_right=1500)
        errors = []
        client.on_icmp(lambda packet, message: errors.append(message))
        client.send_udp(server.ip, 1000, 9, b"z" * 8000, dont_fragment=True)
        topo.run()
        assert len(errors) == 1
        assert errors[0].is_frag_needed
        assert errors[0].next_hop_mtu == 1500

    def test_blackhole_router_suppresses_icmp(self):
        topo, client, server, router = two_host_line(
            mtu_left=9000, mtu_right=1500, icmp_blackhole=True
        )
        errors = []
        client.on_icmp(lambda packet, message: errors.append(message))
        client.send_udp(server.ip, 1000, 9, b"z" * 8000, dont_fragment=True)
        topo.run()
        assert errors == []  # silent drop: the PMTUD blackhole
        assert router.dropped == 1

    def test_fragment_filtering_router(self):
        topo, client, server, router = two_host_line(
            mtu_left=9000, mtu_right=9000, filter_fragments=True
        )
        received = []
        server.on_udp(9, lambda packet, host: received.append(packet))
        # Pre-fragmented traffic (fragments arrive at the router).
        from repro.packet import fragment_packet

        packet = build_udp(client.ip, server.ip, 1, 9, payload=b"q" * 4000)
        for fragment in fragment_packet(packet, 1500):
            client.send(fragment)
        topo.run()
        assert received == []
        assert router.dropped == len(fragment_packet(packet, 1500))

    def test_router_echo_reply(self):
        topo, client, _server, router = two_host_line()
        replies = []
        client.on_icmp(lambda packet, message: replies.append(message))
        request = build_icmp(client.ip, router.interfaces[0].ip, ICMPMessage.echo_request(1, 1))
        client.send(request)
        topo.run()
        assert len(replies) == 1
        assert replies[0].icmp_type == ICMPType.ECHO_REPLY


class TestHost:
    def test_udp_demux_by_port(self):
        topo, client, server, _router = two_host_line()
        on_9, on_10 = [], []
        server.on_udp(9, lambda packet, host: on_9.append(packet))
        server.on_udp(10, lambda packet, host: on_10.append(packet))
        client.send_udp(server.ip, 1, 10, b"ten")
        client.send_udp(server.ip, 1, 9, b"nine")
        topo.run()
        assert [p.payload for p in on_9] == [b"nine"]
        assert [p.payload for p in on_10] == [b"ten"]

    def test_unclaimed_packets_recorded(self):
        topo, client, server, _router = two_host_line()
        client.send_udp(server.ip, 1, 12345, b"nobody")
        topo.run()
        assert len(server.unclaimed) == 1

    def test_host_without_reassembly_drops_fragments(self):
        topo = Topology()
        client = topo.add_host("client")
        server = topo.add_host("server", reassemble=False)
        router = topo.add_router("router")
        topo.link(client, router, mtu=9000)
        topo.link(router, server, mtu=1500)
        topo.build_routes()
        received = []
        server.on_udp(9, lambda packet, host: received.append(packet))
        client.send_udp(server.ip, 1, 9, b"f" * 5000)
        topo.run()
        assert received == []

    def test_host_echo_reply(self):
        topo, client, server, _router = two_host_line()
        replies = []
        client.on_icmp(lambda packet, message: replies.append(message))
        client.send(build_icmp(client.ip, server.ip, ICMPMessage.echo_request(5, 1, b"data")))
        topo.run()
        assert len(replies) == 1
        assert replies[0].payload == b"data"


class TestTopology:
    def test_multi_hop_routing(self):
        topo = Topology()
        hosts = [topo.add_host(f"h{i}") for i in range(2)]
        routers = [topo.add_router(f"r{i}") for i in range(3)]
        topo.link(hosts[0], routers[0])
        topo.link(routers[0], routers[1])
        topo.link(routers[1], routers[2])
        topo.link(routers[2], hosts[1])
        topo.build_routes()
        received = []
        hosts[1].on_udp(9, lambda packet, host: received.append(packet))
        hosts[0].send_udp(hosts[1].ip, 1, 9, b"far")
        topo.run()
        assert len(received) == 1
        assert received[0].ip.ttl == 64 - 3

    def test_duplicate_node_name_rejected(self):
        topo = Topology()
        topo.add_host("x")
        with pytest.raises(ValueError):
            topo.add_host("x")

    def test_star_topology_all_pairs_reachable(self):
        topo = Topology()
        center = topo.add_router("center")
        leaves = [topo.add_host(f"leaf{i}") for i in range(4)]
        for leaf in leaves:
            topo.link(leaf, center)
        topo.build_routes()
        hits = []
        for index, leaf in enumerate(leaves):
            leaf.on_udp(9, lambda packet, host, i=index: hits.append(i))
        for src in leaves:
            for dst_index, dst in enumerate(leaves):
                if src is not dst:
                    src.send_udp(dst.ip, 1, 9, b"m")
        topo.run()
        assert len(hits) == 12  # 4 * 3 pairs

    def test_diamond_tie_goes_to_first_linked_neighbour(self):
        # Two equal-cost paths a-b1-d and a-b2-d.  The breadth-first
        # router is the only one there is, so its tie-break is part of
        # every pinned digest: the neighbour linked first wins, per
        # source, which makes the two directions take different arms.
        topo = Topology()
        src, dst = topo.add_host("src"), topo.add_host("dst")
        a, b1, b2, d = (topo.add_router(name) for name in ("a", "b1", "b2", "d"))
        topo.link(src, a)
        topo.link(a, b2)  # a's first transit neighbour: b2
        topo.link(a, b1)
        topo.link(b1, d)  # d's first transit neighbour: b1
        topo.link(b2, d)
        topo.link(d, dst)
        topo.build_routes()
        assert a.routes.lookup(dst.ip).interface is topo.edge(a, b2)[0]
        assert d.routes.lookup(src.ip).interface is topo.edge(d, b1)[0]
        # One hop further out the tie is already settled: only one arm
        # is a shortest path from inside it.
        assert b1.routes.lookup(dst.ip).interface is topo.edge(b1, d)[0]
        assert b2.routes.lookup(src.ip).interface is topo.edge(b2, a)[0]
        received = []
        for host in (src, dst):
            host.on_udp(9, lambda packet, host: received.append(packet.payload))
        src.send_udp(dst.ip, 1, 9, b"out")
        dst.send_udp(src.ip, 1, 9, b"back")
        topo.run()
        assert sorted(received) == [b"back", b"out"]
        assert topo.edge(a, b2)[2].stats.delivered == 1
        assert topo.edge(a, b1)[2].stats.delivered == 0
        assert topo.edge(d, b1)[2].stats.delivered == 1
        assert topo.edge(d, b2)[2].stats.delivered == 0

    def test_explicit_addresses(self):
        topo = Topology()
        a = topo.add_host("a")
        b = topo.add_host("b")
        topo.link(a, b, ip_a="192.168.0.1", ip_b="192.168.0.2")
        assert a.ip == str_to_ip("192.168.0.1")
        assert b.ip == str_to_ip("192.168.0.2")
