"""TCP edge cases: CUBIC end-to-end, FIN handling, SACK behaviour."""

import struct

import pytest

from repro.net import Topology
from repro.packet import TCPHeader, TCPOption
from repro.sim import Netem
from repro.tcpstack import Cubic, Reno, TCPConnection, TCPListener, TCPState

from .obs.test_observe_tcp import CWND, TIMEOUTS, snippet1_world


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


def spy(host):
    """Record every packet *host* sends, and still send it."""
    sent, forward = [], host.send

    def send(packet, size=None):
        sent.append(packet)
        return forward(packet, size)

    host.send = send
    return sent


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


class TestRtoRecovery:
    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP 4(e): _on_rto enters NewReno recovery and _handle_ack skips "
        "cc.on_ack while in recovery, so slow start never runs after an RTO"))
    def test_window_reopens_within_two_seconds_of_an_rto(self):
        # RFC 5681 §3.1: after a timeout the sender slow-starts from one
        # segment, doubling per RTT (0.25 s here), so 2 s is ample.
        mss = 8960
        run = snippet1_world(mss, observe=True)
        first_rto = next(at for at, count in run.timeline.values(TIMEOUTS) if count)
        after = [cwnd for at, cwnd in run.timeline.values(CWND)
                 if first_rto <= at <= first_rto + 2.0]
        assert max(after) > 4 * mss


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

    @staticmethod
    def open_pair():
        topo, client, server = simple_pair()
        listener = TCPListener(server, 80)
        conn = TCPConnection(client, 40000, server.ip, 80)
        conn.connect()
        topo.run(until=1.0)
        return topo, client, server, conn, listener.connections[0]

    def test_a_lost_fin_is_retransmitted_as_a_fin_not_a_byte(self):
        topo, client, server, conn, server_conn = self.open_pair()
        original, dropped = client.send, []

        def lose_first_fin(packet, size=None):
            if packet.tcp.fin and not dropped:
                dropped.append(packet)
                return True
            return original(packet, size)

        client.send = lose_first_fin
        conn.send_bulk(3000)
        conn.close()
        topo.run(until=5.0)
        assert dropped and conn.retransmits == 1
        assert server_conn.bytes_delivered == 3000  # was 3001: the FIN's slot as data
        assert server_conn.state == TCPState.CLOSE_WAIT
        assert conn.snd_una == conn.snd_nxt

    def test_the_side_that_took_the_fin_still_sends_its_data_and_its_own_fin(self):
        topo, client, server, conn, server_conn = self.open_pair()
        server_conn.send_bulk(2_000_000)  # far more than one window
        conn.close()
        topo.run(until=2.0)
        assert server_conn.state == TCPState.CLOSE_WAIT
        server_conn.close()
        topo.run(until=5.0)
        assert conn.bytes_delivered == 2_000_000
        assert server_conn.state == TCPState.LAST_ACK
        assert conn.rcv_nxt == (server_conn.iss + 2_000_002) & 0xFFFFFFFF  # data, then FIN
        assert server_conn.snd_una == server_conn.snd_nxt
        assert topo.sim.pending() == 0

    def test_a_repeated_fin_is_acknowledged_again(self):
        topo, client, server, conn, server_conn = self.open_pair()
        from_client, from_server = spy(client), spy(server)
        conn.close()
        topo.run(until=2.0)
        fin = next(packet for packet in from_client if packet.tcp.fin)
        from_server.clear()
        server_conn._on_packet(fin)  # as if its first ACK had been lost
        assert [packet.tcp.ack for packet in from_server] == [server_conn.rcv_nxt]

    def test_a_fin_is_never_a_duplicate_ack(self):
        # RFC 5681 §2 (c): the peer's FIN acknowledges our snd_una while
        # our data is in flight; three copies must not fast-retransmit.
        topo, client, server, conn, server_conn = self.open_pair()
        from_client = spy(client)
        server_conn.send_bulk(50_000)  # in flight, none of it delivered yet
        conn.close()
        fin = next(packet for packet in from_client if packet.tcp.fin)
        assert fin.tcp.ack == server_conn.snd_una != server_conn.snd_nxt
        cwnd = server_conn.cc.cwnd
        for _ in range(3):
            server_conn._on_packet(fin)
        assert server_conn.retransmits == 0
        assert server_conn.cc.cwnd == cwnd


def sack_ack(*blocks):
    """A TCP header carrying *blocks* as one SACK option."""
    edges = [seq & 0xFFFFFFFF for block in blocks for seq in block]
    return TCPHeader(options=[TCPOption(TCPOption.SACK, struct.pack(f"!{len(edges)}I", *edges))])


class TestSackBehaviour:
    def test_receiver_advertises_sack_blocks_on_gap(self):
        # Observe the raw ACKs leaving a receiver that has a hole.
        topo, client, server = simple_pair()
        listener = TCPListener(server, 80)
        conn = TCPConnection(client, 40000, server.ip, 80)
        conn.connect()
        topo.run(until=1.0)
        server_conn = listener.connections[0]

        sent = spy(server)
        # Inject out-of-order data directly: a segment beyond a hole.
        hole_end = (server_conn.rcv_nxt + 5000) & 0xFFFFFFFF
        server_conn._handle_data(hole_end, 1000, psh=False)
        sacks = [packet.tcp.find_option(TCPOption.SACK) for packet in sent]
        assert sacks and sacks[0] is not None, "dup-ACK with SACK state expected"
        assert struct.unpack("!II", sacks[0].data) == (hole_end, (hole_end + 1000) & 0xFFFFFFFF)

    def test_retransmit_targets_exact_hole(self):
        topo, client, server = simple_pair(netem=Netem(loss=0.0))
        listener = TCPListener(server, 80)
        conn = TCPConnection(client, 40000, server.ip, 80)
        conn.connect()
        topo.run(until=1.0)
        # Fabricate SACK state: 1460-byte hole at snd_una, then data.
        conn.snd_nxt = (conn.snd_una + 20_000) & 0xFFFFFFFF
        conn._record_sack(sack_ack((conn.snd_una + 1460, conn.snd_una + 20_000)))
        sent = []
        conn._transmit_segment = lambda seq, length, retransmission=False: sent.append(
            (seq, length))
        conn._retransmit_head()
        assert sent == [(conn.snd_una, 1460)]

    def test_stale_sack_blocks_pruned(self):
        topo, client, server = simple_pair()
        conn = TCPConnection(client, 40000, server.ip, 80)
        conn._record_sack(sack_ack((5000, 6000)))
        assert conn._sacked == [(5000, 6000)]
        conn.snd_una = 7000
        conn._sack_prune()
        assert conn._sacked == []
        conn._record_sack(sack_ack((5000, 6000)))  # a late ACK repeats it: stale
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
        sent = spy(client)
        conn = TCPConnection(client, 40000, server.ip, 80, mss=8960)
        conn.connect()
        syns = [packet for packet in sent if packet.is_tcp and packet.tcp.syn]
        assert syns
        assert syns[0].tcp.mss_option == 8960
        wscale = syns[0].tcp.find_option(TCPOption.WINDOW_SCALE)
        assert wscale.data[0] == TCPConnection.WINDOW_SCALE
