"""Failure injection: PXGW correctness under reordering and burst loss.

The merge engine only splices *in-order* bytes; these tests verify that
reordered or bursty-lossy paths degrade gracefully (flush + restart)
without ever corrupting the byte stream, and that fragments coexist
with the gateway.
"""

import pytest

from repro.core import GatewayConfig, PXGateway
from repro.net import Topology
from repro.packet import build_udp, fragment_packet
from repro.sim import GilbertElliott, Netem
from repro.tcpstack import TCPConnection, TCPListener


def gateway_topology(netem_external=None, merge_timeout=200e-6, seed=31):
    topo = Topology(seed=seed)
    inside = topo.add_host("inside")
    outside = topo.add_host("outside")
    gateway = PXGateway(topo.sim, "pxgw",
                        config=GatewayConfig(merge_timeout=merge_timeout,
                                             elephant_threshold_packets=2))
    topo.add_node(gateway)
    topo.link(inside, gateway, mtu=9000, bandwidth_bps=10e9, delay=50e-6,
              queue_bytes=1 << 24)
    topo.link(gateway, outside, mtu=1500, bandwidth_bps=10e9, delay=1e-3,
              netem=netem_external, queue_bytes=1 << 24)
    topo.build_routes()
    gateway.mark_internal(gateway.interfaces[0])
    return topo, inside, outside, gateway


def transfer(topo, inside, outside, nbytes=800_000, deadline=30.0):
    listener = TCPListener(outside, 80, mss=1460)
    conn = TCPConnection(inside, 40000, outside.ip, 80, mss=8960)
    conn.connect()
    topo.run(until=1.0)
    server = listener.connections[0]
    server.send_bulk(nbytes)  # download: merge path under stress
    conn.send_bulk(nbytes)  # upload: split path under stress
    topo.run(until=deadline)
    return conn, server


class TestReordering:
    def test_download_survives_reordering(self):
        netem = Netem(reorder=0.05, reorder_extra=0.002)
        topo, inside, outside, gateway = gateway_topology(netem_external=netem)
        conn, server = transfer(topo, inside, outside)
        assert conn.bytes_delivered == 800_000
        assert server.bytes_delivered == 800_000
        # Reordering happened and the merge engine coped (flushes of
        # spliced partials rather than corrupted output).
        assert gateway.stats.merged_packets > 0

    def test_heavy_reordering_still_correct(self):
        netem = Netem(reorder=0.3, reorder_extra=0.004)
        topo, inside, outside, gateway = gateway_topology(netem_external=netem)
        conn, server = transfer(topo, inside, outside, nbytes=300_000, deadline=60.0)
        assert conn.bytes_delivered == 300_000
        assert server.bytes_delivered == 300_000


class TestBurstLoss:
    def test_transfer_completes_through_bursty_wan(self):
        # A chain harsh enough to enter the bad state within ~330
        # packets per direction (at p_good_to_bad=0.002 it dropped
        # nothing at this size and seed).
        netem = Netem(delay=2e-3,
                      burst_loss=GilbertElliott(p_good_to_bad=0.01,
                                                p_bad_to_good=0.3,
                                                loss_bad=0.5))
        topo, inside, outside, gateway = gateway_topology(netem_external=netem)
        conn, server = transfer(topo, inside, outside, nbytes=400_000, deadline=120.0)
        # Bursts really hit the flows, and every byte still arrives.
        assert sum(link.stats.dropped_loss for link in topo.links()) > 0
        assert conn.bytes_delivered == 400_000
        assert server.bytes_delivered == 400_000
        assert conn.retransmits > 0 and server.retransmits > 0

    def test_reordering_plus_loss_combined(self):
        netem = Netem(delay=1e-3, loss=0.002, reorder=0.05, reorder_extra=0.002)
        topo, inside, outside, gateway = gateway_topology(netem_external=netem)
        conn, server = transfer(topo, inside, outside, nbytes=300_000, deadline=120.0)
        assert conn.bytes_delivered == 300_000
        assert server.bytes_delivered == 300_000


class TestFragmentsThroughGateway:
    def test_fragmented_udp_passes_outbound(self):
        topo, inside, outside, gateway = gateway_topology()
        received = []
        outside.on_udp(9, lambda packet, host: received.append(packet))
        # An inside host emits a pre-fragmented datagram (e.g. from an
        # app that bypassed PMTU); the gateway forwards fragments as-is.
        packet = build_udp(inside.ip, outside.ip, 1, 9, payload=b"f" * 4000)
        for fragment in fragment_packet(packet, 1400):
            inside.send(fragment)
        topo.run(until=1.0)
        assert len(received) == 1
        assert received[0].payload == b"f" * 4000

    def test_oversized_udp_outbound_fragmented_by_gateway(self):
        topo, inside, outside, gateway = gateway_topology()
        received = []
        outside.on_udp(9, lambda packet, host: received.append(packet))
        inside.send_udp(outside.ip, 1, 9, b"big" * 2000)  # 6 kB datagram
        topo.run(until=1.0)
        # The gateway's router layer fragments it for the 1500 B side.
        assert len(received) == 1
        assert received[0].payload == b"big" * 2000
