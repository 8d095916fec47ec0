"""TCP edge cases: CUBIC end-to-end, FIN handling, SACK behaviour."""

import pytest

from repro.net import Topology
from repro.packet import TCPOption
from repro.sim import Netem
from repro.tcpstack import Cubic, Reno, TCPConnection, TCPListener, TCPState


def simple_pair(netem=None, mtu=1500, bandwidth=10e9):
    topo = Topology()
    client = topo.add_host("client")
    server = topo.add_host("server")
    router = topo.add_router("router")
    topo.link(client, router, mtu=mtu, bandwidth_bps=bandwidth)
    topo.link(router, server, mtu=mtu, bandwidth_bps=bandwidth, netem=netem,
              queue_bytes=1 << 24)
    topo.build_routes()
    return topo, client, server


class TestCubicEndToEnd:
    def test_cubic_completes_lossy_transfer(self):
        topo, client, server = simple_pair(netem=Netem(delay=2e-3, loss=0.005))
        listener = TCPListener(server, 80, cc_class=Cubic)
        conn = TCPConnection(client, 40000, server.ip, 80, cc_class=Cubic)
        conn.connect()
        topo.run(until=1.0)
        conn.send_bulk(400_000)
        topo.run(until=60.0)
        assert listener.connections[0].bytes_delivered == 400_000
        assert conn.retransmits > 0

    def test_cubic_and_reno_interoperate(self):
        topo, client, server = simple_pair()
        listener = TCPListener(server, 80, cc_class=Reno)
        conn = TCPConnection(client, 40000, server.ip, 80, cc_class=Cubic)
        conn.connect()
        topo.run(until=1.0)
        conn.send_bulk(300_000)
        topo.run(until=5.0)
        assert listener.connections[0].bytes_delivered == 300_000


class TestFinHandling:
    def test_close_after_data_reaches_close_wait(self):
        topo, client, server = simple_pair()
        listener = TCPListener(server, 80)
        conn = TCPConnection(client, 40000, server.ip, 80)
        conn.connect()
        topo.run(until=1.0)
        conn.send_bulk(50_000)
        conn.close()
        topo.run(until=5.0)
        server_conn = listener.connections[0]
        assert server_conn.bytes_delivered == 50_000
        assert conn.state == TCPState.FIN_WAIT
        assert server_conn.state == TCPState.CLOSE_WAIT

    def test_immediate_close_sends_fin_only(self):
        topo, client, server = simple_pair()
        listener = TCPListener(server, 80)
        conn = TCPConnection(client, 40000, server.ip, 80)
        conn.connect()
        topo.run(until=1.0)
        conn.close()
        topo.run(until=3.0)
        assert listener.connections[0].state == TCPState.CLOSE_WAIT
        assert listener.connections[0].bytes_delivered == 0


class TestSackBehaviour:
    def test_receiver_advertises_sack_blocks_on_gap(self):
        # Observe the raw ACKs leaving a receiver that has a hole.
        topo, client, server = simple_pair()
        listener = TCPListener(server, 80)
        conn = TCPConnection(client, 40000, server.ip, 80)
        conn.connect()
        topo.run(until=1.0)
        server_conn = listener.connections[0]

        sack_acks = []
        original = server_conn._send_ack

        def spy():
            original()
            if server_conn._ooo:
                sack_acks.append(list(server_conn._ooo))

        server_conn._send_ack = spy
        # Inject out-of-order data directly: a segment beyond a hole.
        server_conn._handle_data(server_conn.rcv_nxt + 5000, 1000, psh=False)
        assert sack_acks, "dup-ACK with SACK state expected"
        start, stop = sack_acks[0][0]
        assert (stop - start) & 0xFFFFFFFF == 1000

    def test_retransmit_targets_exact_hole(self):
        topo, client, server = simple_pair(netem=Netem(loss=0.0))
        listener = TCPListener(server, 80)
        conn = TCPConnection(client, 40000, server.ip, 80)
        conn.connect()
        topo.run(until=1.0)
        # Fabricate SACK state: 1460-byte hole at snd_una, then data.
        conn.snd_nxt = (conn.snd_una + 20_000) & 0xFFFFFFFF
        conn._sack_insert((conn.snd_una + 1460) & 0xFFFFFFFF,
                          (conn.snd_una + 20_000) & 0xFFFFFFFF)
        sent = []
        conn._transmit_segment = lambda seq, length, retransmission=False: sent.append(
            (seq, length))
        conn._retransmit_head()
        assert sent == [(conn.snd_una, 1460)]

    def test_stale_sack_blocks_pruned(self):
        topo, client, server = simple_pair()
        conn = TCPConnection(client, 40000, server.ip, 80)
        conn._sack_insert(5000, 6000)
        assert conn._sacked
        conn.snd_una = 7000
        conn._sack_prune()
        assert conn._sacked == []


class TestMiscConnection:
    def test_connect_twice_rejected(self):
        topo, client, server = simple_pair()
        conn = TCPConnection(client, 40000, server.ip, 80)
        conn.connect()
        with pytest.raises(RuntimeError):
            conn.connect()

    def test_negative_bulk_rejected(self):
        topo, client, server = simple_pair()
        conn = TCPConnection(client, 40000, server.ip, 80)
        with pytest.raises(ValueError):
            conn.send_bulk(-1)

    def test_throughput_zero_duration(self):
        topo, client, server = simple_pair()
        conn = TCPConnection(client, 40000, server.ip, 80)
        assert conn.throughput_bps(0) == 0.0

    def test_window_scale_option_on_syn(self):
        topo, client, server = simple_pair()
        syns = []
        original = client.send

        def spy(packet, size=None):
            if packet.is_tcp and packet.tcp.syn:
                syns.append(packet)
            return original(packet, size)

        client.send = spy
        conn = TCPConnection(client, 40000, server.ip, 80, mss=8960)
        conn.connect()
        assert syns
        assert syns[0].tcp.mss_option == 8960
        wscale = syns[0].tcp.find_option(TCPOption.WINDOW_SCALE)
        assert wscale.data[0] == TCPConnection.WINDOW_SCALE
