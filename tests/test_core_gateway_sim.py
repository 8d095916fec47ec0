"""End-to-end simulation tests: hosts talking across a PXGateway."""

import pytest

from repro.core import FPMTUD_PORT, GatewayConfig, PXGateway, decode_caravan, is_caravan
from repro.net import Topology
from repro.packet import TCPFlags, build_tcp, build_udp
from repro.tcpstack import TCPConnection, TCPListener


def px_topology(imtu=9000, emtu=1500, config=None, merge_timeout=200e-6):
    """inside_host (iMTU) -- PXGW -- outside_host (eMTU)."""
    topo = Topology()
    inside = topo.add_host("inside")
    outside = topo.add_host("outside")
    config = config or GatewayConfig(imtu=imtu, emtu=emtu, merge_timeout=merge_timeout)
    gateway = PXGateway(topo.sim, "pxgw", config=config)
    topo.add_node(gateway)
    topo.link(inside, gateway, mtu=imtu, bandwidth_bps=10e9, delay=5e-5)
    topo.link(gateway, outside, mtu=emtu, bandwidth_bps=10e9, delay=5e-5)
    topo.build_routes()
    gateway.mark_internal(gateway.interfaces[0])
    return topo, inside, outside, gateway


class TestMssNegotiationAcrossGateway:
    def test_inside_sender_keeps_large_mss(self):
        topo, inside, outside, gateway = px_topology()
        listener = TCPListener(outside, 80, mss=1460)
        conn = TCPConnection(inside, 40000, outside.ip, 80, mss=8960)
        conn.connect()
        topo.run(until=1.0)
        # The SYN-ACK's MSS was raised to 8960 crossing into the b-network.
        assert conn.state == "ESTABLISHED"
        assert conn.send_mss == 8960
        # The outside server was capped to the external MSS.
        assert listener.connections[0].send_mss == 1460
        assert gateway.stats.mss_rewrites == 2  # SYN capped + SYN-ACK raised

    def test_without_clamp_inside_sender_stuck_small(self):
        config = GatewayConfig(mss_clamp=False, merge_timeout=200e-6)
        topo, inside, outside, _gateway = px_topology(config=config)
        TCPListener(outside, 80, mss=1460)
        conn = TCPConnection(inside, 40000, outside.ip, 80, mss=8960)
        conn.connect()
        topo.run(until=1.0)
        assert conn.send_mss == 1460  # negotiation fell to the outside MSS


class TestDownlinkMerge:
    def test_outside_to_inside_bulk_arrives_as_jumbos(self):
        topo, inside, outside, gateway = px_topology()
        listener = TCPListener(outside, 80, mss=1460)
        conn = TCPConnection(inside, 40000, outside.ip, 80, mss=8960)
        conn.connect()
        topo.run(until=0.5)
        server_conn = listener.connections[0]
        server_conn.send_bulk(1_000_000)
        topo.run(until=5.0)
        assert conn.bytes_delivered == 1_000_000
        # Merging happened: the gateway spliced jumbo segments.
        assert gateway.stats.merged_packets > 0
        sizes = gateway.stats.inbound_size_histogram
        assert 9000 in sizes and sizes[9000] > 50

    def test_conversion_yield_high_for_bulk_flow(self):
        topo, inside, outside, gateway = px_topology()
        listener = TCPListener(outside, 80, mss=1460)
        conn = TCPConnection(inside, 40000, outside.ip, 80, mss=8960)
        conn.connect()
        topo.run(until=0.5)
        listener.connections[0].send_bulk(2_000_000)
        topo.run(until=5.0)
        assert conn.bytes_delivered == 2_000_000
        assert gateway.stats.conversion_yield > 0.75

    def test_inside_receiver_sees_far_fewer_packets(self):
        topo, inside, outside, gateway = px_topology()
        listener = TCPListener(outside, 80, mss=1460)
        conn = TCPConnection(inside, 40000, outside.ip, 80, mss=8960)
        conn.connect()
        topo.run(until=0.5)
        rx_before = inside.rx_packets
        listener.connections[0].send_bulk(1_000_000)
        topo.run(until=5.0)
        data_packets = inside.rx_packets - rx_before
        # 1 MB at 1448 B/packet would be ~690 packets; jumbos cut ~6x.
        assert data_packets < 300


class TestMergeEvictionRouting:
    def test_evicted_flows_segment_leaves_by_its_own_interface(self):
        # Two b-network hosts behind separate internal interfaces and
        # one merge context: a packet for host B evicts host A's
        # context, so the worker hands back A's segment while B's packet
        # is the one being processed.  The gateway forwards outputs with
        # the route it looked up for the *input*; an output bound
        # elsewhere has to look up its own.
        topo = Topology()
        inside_a = topo.add_host("inside_a")
        inside_b = topo.add_host("inside_b")
        outside = topo.add_host("outside")
        config = GatewayConfig(merge_contexts_per_worker=1, elephant_threshold_packets=1,
                               merge_timeout=5e-3)
        gateway = PXGateway(topo.sim, "pxgw", config=config)
        topo.add_node(gateway)
        topo.link(inside_a, gateway, mtu=9000, delay=5e-5)
        topo.link(inside_b, gateway, mtu=9000, delay=5e-5)
        topo.link(gateway, outside, mtu=1500, delay=5e-5)
        topo.build_routes()
        to_a, to_b, _external = gateway.interfaces
        gateway.mark_internal(to_a)
        gateway.mark_internal(to_b)

        def data(dst, port, fill):
            return build_tcp(outside.ip, dst.ip, 80, port, payload=bytes([fill]) * 1000,
                             seq=1, flags=TCPFlags.ACK)

        outside.send(data(inside_a, 40001, 0xAA))
        topo.run(until=1e-3)  # buffered: well inside the merge timeout
        assert gateway.worker.merge.pending_bytes() == 1000
        assert (to_a.tx_packets, to_b.tx_packets) == (0, 0)

        outside.send(data(inside_b, 40002, 0xBB))
        topo.run(until=2e-3)
        assert gateway.worker.merge.evictions == 1
        assert (to_a.tx_packets, to_b.tx_packets) == (1, 0)
        assert [p.payload for p in inside_a.unclaimed] == [b"\xaa" * 1000]
        assert inside_a.unclaimed[0].ip.dst == inside_a.ip
        assert inside_b.unclaimed == []

        topo.run(until=20e-3)  # the flush timer releases B's bytes to B
        assert [p.payload for p in inside_b.unclaimed] == [b"\xbb" * 1000]
        assert len(inside_a.unclaimed) == 1


class TestUplinkSplit:
    def test_inside_to_outside_bulk_split_to_emtu(self):
        topo, inside, outside, gateway = px_topology()
        listener = TCPListener(outside, 80, mss=1460)
        conn = TCPConnection(inside, 40000, outside.ip, 80, mss=8960)
        conn.connect()
        topo.run(until=0.5)
        conn.send_bulk(1_000_000)
        topo.run(until=5.0)
        assert listener.connections[0].bytes_delivered == 1_000_000
        assert gateway.stats.split_segments > 0


class TestCaravanAcrossGateway:
    def test_udp_stream_bundled_and_decodable(self):
        topo, inside, outside, gateway = px_topology()
        received = []
        inside.on_udp(5001, lambda packet, host: received.append(packet))
        for index in range(24):
            outside.send_udp(inside.ip, 6000, 5001, b"\xab" * 1200)
        topo.run(until=1.0)
        caravans = [p for p in received if is_caravan(p)]
        assert caravans, "expected caravan bundles to reach the inside host"
        datagrams = []
        for packet in received:
            datagrams.extend(decode_caravan(packet))
        assert len(datagrams) == 24
        assert all(p.payload == b"\xab" * 1200 for p in datagrams)
        assert gateway.stats.caravans_built == len(caravans)

    def test_partial_caravan_flushed_by_timer(self):
        topo, inside, outside, gateway = px_topology()
        received = []
        inside.on_udp(5001, lambda packet, host: received.append(packet))
        for _ in range(3):  # not enough to fill an iMTU bundle
            outside.send_udp(inside.ip, 6000, 5001, b"z" * 1200)
        topo.run(until=1.0)
        datagrams = []
        for packet in received:
            datagrams.extend(decode_caravan(packet))
        assert len(datagrams) == 3

    def test_fpmtud_port_not_merged(self):
        topo, inside, outside, gateway = px_topology()
        received = []
        inside.on_udp(FPMTUD_PORT, lambda packet, host: received.append(packet))
        for _ in range(12):
            outside.send_udp(inside.ip, 6000, FPMTUD_PORT, b"probe" * 100)
        topo.run(until=1.0)
        assert len(received) == 12
        assert not any(is_caravan(p) for p in received)


class TestNeighborImtu:
    def test_advertised_peer_imtu_skips_translation(self):
        topo = Topology()
        inside = topo.add_host("inside")
        peer = topo.add_host("peer")
        gateway = PXGateway(topo.sim, "pxgw", config=GatewayConfig())
        topo.add_node(gateway)
        topo.link(inside, gateway, mtu=9000)
        topo.link(gateway, peer, mtu=9000)  # physical path supports jumbo
        topo.build_routes()
        gateway.mark_internal(gateway.interfaces[0])
        gateway.set_neighbor_imtu(gateway.interfaces[1], 9000)
        received = []
        peer.on_udp(7000, lambda packet, host: received.append(packet))
        inside.send_udp(peer.ip, 1, 7000, b"j" * 8000)
        topo.run(until=1.0)
        assert len(received) == 1
        assert received[0].total_len == 8028  # crossed untranslated
        assert gateway.untranslated == 1
