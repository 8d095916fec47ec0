"""Tests for the TCP stack: handshake, transfer, loss recovery, PMTUD, CC."""

import pytest

from repro.net import Topology
from repro.obs import Observability, TelemetryTimeline, observe_tcp
from repro.sim import Netem
from repro.tcpstack import (
    Cubic,
    Reno,
    TCPConnection,
    TCPListener,
    TCPState,
    congestion_avoidance_ramp_bps,
    mathis_throughput_bps,
    padhye_throughput_bps,
    slow_start_rtts_to_rate,
)


def line_topology(mtu=1500, bandwidth=10e9, delay=1e-4, netem=None, blackhole=False,
                  right_mtu=None):
    topo = Topology()
    client = topo.add_host("client")
    server = topo.add_host("server")
    router = topo.add_router("router", icmp_blackhole=blackhole)
    topo.link(client, router, mtu=mtu, bandwidth_bps=bandwidth, delay=delay, netem=netem)
    topo.link(router, server, mtu=right_mtu if right_mtu else mtu,
              bandwidth_bps=bandwidth, delay=delay)
    topo.build_routes()
    return topo, client, server


CWND = 'px_tcp_cwnd_bytes{conn="client:40000"}'


def cwnd_timeline(topo, conn, interval=0.01):
    """A timeline over ``observe_tcp(conn)``, and ``(now, cwnd)`` read at each scrape."""
    obs = Observability()
    observe_tcp(obs, conn)
    truth = []
    obs.registry.register_collector(lambda _registry: truth.append((topo.sim.now, conn.cc.cwnd)))
    return TelemetryTimeline(topo.sim, obs.registry, interval=interval).start(), truth


def open_connection(topo, client, server, client_mss=1460, server_mss=1460, **kwargs):
    listener = TCPListener(server, 80, mss=server_mss)
    conn = TCPConnection(client, 40000, server.ip, 80, mss=client_mss, **kwargs)
    conn.connect()
    topo.run(until=topo.sim.now + 1.0)
    return conn, listener


class TestHandshake:
    def test_three_way_handshake_establishes_both_sides(self):
        topo, client, server = line_topology()
        conn, listener = open_connection(topo, client, server)
        assert conn.state == TCPState.ESTABLISHED
        assert listener.connections[0].state == TCPState.ESTABLISHED

    def test_mss_negotiated_to_minimum(self):
        topo, client, server = line_topology(mtu=9000)
        conn, listener = open_connection(topo, client, server,
                                         client_mss=8960, server_mss=1460)
        assert conn.send_mss == 1460
        assert listener.connections[0].send_mss == 1460

    def test_window_scale_negotiated(self):
        topo, client, server = line_topology()
        conn, listener = open_connection(topo, client, server)
        assert conn.peer_wscale == TCPConnection.WINDOW_SCALE
        assert conn.effective_peer_window == 65535 << TCPConnection.WINDOW_SCALE

    def test_syn_retransmitted_on_loss(self):
        # 100% loss initially is impossible to converge, so drop via tiny queue:
        topo = Topology()
        client = topo.add_host("client")
        server = topo.add_host("server")
        router = topo.add_router("router")
        netem = Netem(loss=0.9)
        topo.link(client, router, netem=netem)
        topo.link(router, server)
        topo.build_routes()
        listener = TCPListener(server, 80)
        conn = TCPConnection(client, 40000, server.ip, 80)
        conn.connect()
        topo.run(until=130.0)  # room for exponential backoff under 90 % loss
        assert conn.timeouts > 0
        assert conn.state == TCPState.ESTABLISHED  # eventually makes it


class TestBulkTransfer:
    def test_all_bytes_delivered(self):
        topo, client, server = line_topology()
        conn, listener = open_connection(topo, client, server)
        conn.send_bulk(1_000_000)
        topo.run(until=topo.sim.now + 5.0)
        assert listener.connections[0].bytes_delivered == 1_000_000
        assert conn.bytes_acked == 1_000_000

    def test_segments_bounded_by_mss(self):
        topo, client, server = line_topology(mtu=9000)
        conn, listener = open_connection(topo, client, server,
                                         client_mss=8960, server_mss=8960)
        conn.send_bulk(100_000)
        topo.run(until=topo.sim.now + 2.0)
        assert listener.connections[0].bytes_delivered == 100_000

    def test_larger_mss_fewer_packets(self):
        results = {}
        for mss, mtu in ((1460, 1500), (8960, 9000)):
            topo, client, server = line_topology(mtu=mtu)
            conn, listener = open_connection(topo, client, server,
                                             client_mss=mss, server_mss=mss)
            conn.send_bulk(500_000)
            topo.run(until=topo.sim.now + 3.0)
            assert listener.connections[0].bytes_delivered == 500_000
            results[mss] = server.rx_packets
        assert results[8960] < results[1460] / 3

    def test_throughput_reported(self):
        topo, client, server = line_topology()
        conn, listener = open_connection(topo, client, server)
        conn.send_bulk(2_000_000)
        start = topo.sim.now
        topo.run(until=start + 5.0)
        server_conn = listener.connections[0]
        assert server_conn.throughput_bps(5.0) > 1e6


class TestLossRecovery:
    def test_recovers_from_random_loss(self):
        topo, client, server = line_topology(netem=Netem(loss=0.01), delay=1e-3)
        conn, listener = open_connection(topo, client, server)
        conn.send_bulk(500_000)
        topo.run(until=topo.sim.now + 30.0)
        assert listener.connections[0].bytes_delivered == 500_000
        assert conn.retransmits > 0

    def test_loss_reduces_cwnd(self):
        topo, client, server = line_topology(netem=Netem(loss=0.02), delay=1e-3)
        conn, _listener = open_connection(topo, client, server)
        timeline, _truth = cwnd_timeline(topo, conn)
        conn.send_bulk(500_000)
        topo.run(until=topo.sim.now + 30.0)
        cwnds = [value for _t, value in timeline.values(CWND)]
        assert any(cwnds[i + 1] < cwnds[i] for i in range(len(cwnds) - 1))

    def test_timeline_cwnd_equals_the_connection_window_at_each_tick(self):
        topo, client, server = line_topology(netem=Netem(loss=0.02), delay=1e-3)
        conn, _listener = open_connection(topo, client, server)
        timeline, truth = cwnd_timeline(topo, conn)
        conn.send_bulk(4_000_000)
        topo.run(until=topo.sim.now + 5.0)
        rebuilt = timeline.values(CWND)
        assert len(rebuilt) == timeline.ticks == len(truth) - 1 > 100
        assert [at for at, _ in rebuilt] == [at for at, _ in truth[1:]]
        assert [cwnd for _, cwnd in rebuilt] == pytest.approx([cwnd for _, cwnd in truth[1:]])
        assert rebuilt[-1] == truth[-1]  # the last tick is the latest snapshot, exactly
        assert len({cwnd for _, cwnd in rebuilt}) > 10  # the window moved

    def test_lossless_transfer_has_no_retransmits(self):
        topo, client, server = line_topology()
        conn, listener = open_connection(topo, client, server)
        conn.send_bulk(1_000_000)
        topo.run(until=topo.sim.now + 5.0)
        assert conn.retransmits == 0

    def test_two_way_transfer_counts_no_data_segment_as_duplicate_ack(self):
        # RFC 5681 §2: a duplicate ACK carries no data.  With both ends
        # sending, every data segment repeats the last ACK number; taking
        # those for dup-ACKs made each end fast-retransmit ~1.4k times on
        # a path that drops nothing.
        topo, client, server = line_topology(delay=1e-3)
        conn, listener = open_connection(topo, client, server)
        peer = listener.connections[0]
        conn.send_bulk(2_000_000)
        peer.send_bulk(2_000_000)
        topo.run(until=topo.sim.now + 30.0)
        assert sum(link.stats.dropped_loss + link.stats.dropped_queue
                   for link in topo.links()) == 0
        assert conn.bytes_delivered == peer.bytes_delivered == 2_000_000
        assert (conn.retransmits, peer.retransmits) == (0, 0)
        assert (conn.timeouts, peer.timeouts) == (0, 0)


class TestClassicalPmtud:
    def test_sender_adapts_mss_on_icmp(self):
        # 9000 MTU on the client side, 1500 beyond the router.
        topo, client, server = line_topology(mtu=9000, right_mtu=1500)
        conn, listener = open_connection(topo, client, server,
                                         client_mss=8960, server_mss=8960)
        conn.send_bulk(200_000)
        topo.run(until=topo.sim.now + 10.0)
        assert conn.send_mss == 1460  # adapted to the bottleneck
        assert listener.connections[0].bytes_delivered == 200_000

    def test_blackhole_stalls_transfer(self):
        topo, client, server = line_topology(mtu=9000, right_mtu=1500, blackhole=True)
        conn, listener = open_connection(topo, client, server,
                                         client_mss=8960, server_mss=8960)
        conn.send_bulk(200_000)
        topo.run(until=topo.sim.now + 20.0)
        # No ICMP arrives; large segments vanish silently.
        assert conn.send_mss == 8960
        assert listener.connections[0].bytes_delivered < 200_000
        assert conn.timeouts > 0


class TestCongestionControl:
    def test_reno_slow_start_doubles_per_window(self):
        cc = Reno(mss=1000)
        initial = cc.cwnd
        # ACK a full window's worth of data.
        for _ in range(int(initial / 1000)):
            cc.on_ack(1000)
        assert cc.cwnd == pytest.approx(2 * initial)

    def test_reno_congestion_avoidance_adds_mss_per_window(self):
        cc = Reno(mss=1000)
        cc.ssthresh = cc.cwnd  # force CA
        window_packets = int(cc.cwnd / 1000)
        before = cc.cwnd
        for _ in range(window_packets):
            cc.on_ack(1000)
        assert cc.cwnd - before == pytest.approx(1000, rel=0.1)

    def test_reno_halves_on_loss(self):
        cc = Reno(mss=1000)
        cc.cwnd = 100_000
        cc.on_loss()
        assert cc.cwnd == pytest.approx(50_000)

    def test_timeout_collapses_to_one_mss(self):
        cc = Reno(mss=1500)
        cc.cwnd = 100_000
        cc.on_timeout()
        assert cc.cwnd == 1500

    def test_larger_mss_ramps_faster(self):
        small, large = Reno(mss=1500), Reno(mss=9000)
        small.ssthresh = small.cwnd
        large.ssthresh = large.cwnd
        for cc in (small, large):
            for _ in range(100):
                cc.on_ack(cc.mss)
        assert large.cwnd - 90_000 > (small.cwnd - 15_000) * 3

    def test_cubic_timeout_follows_rfc9438(self):
        # RFC 9438 §4.8: ssthresh by β_cubic (as on a loss), cwnd to one
        # segment; the first congestion-avoidance epoch after the timeout
        # has K = 0 and W_max = the window at that epoch's start.
        mss = 1000
        cc = Cubic(mss=mss)
        cc.cwnd = 150 * mss
        cc.on_loss(now=0.0)  # W_max = 150 MSS
        cc.cwnd = 100 * mss
        cc.on_timeout(now=1.0)
        assert cc.ssthresh == pytest.approx(70 * mss)  # β_cubic, not Reno's half
        assert cc.cwnd == mss
        while cc.in_slow_start:
            cc.on_ack(mss, now=2.0)
        cc.on_ack(mss, now=2.0)  # opens the epoch
        assert cc._k == 0.0
        assert cc._w_max == pytest.approx(70 * mss)  # not the 150 before the loss

    def test_cubic_recovers_toward_wmax(self):
        cc = Cubic(mss=1500)
        cc.cwnd = 150_000
        cc.ssthresh = 1.0  # force CA
        cc.on_loss(now=0.0)
        after_loss = cc.cwnd
        for i in range(2000):
            cc.on_ack(1500, now=0.001 * i)
        assert cc.cwnd > after_loss

    def test_bad_mss_rejected(self):
        with pytest.raises(ValueError):
            Reno(mss=0)


class TestClosedFormModels:
    def test_mathis_proportional_to_mss(self):
        t1500 = mathis_throughput_bps(1448, rtt=0.01, loss=1e-4)
        t9000 = mathis_throughput_bps(8948, rtt=0.01, loss=1e-4)
        assert t9000 / t1500 == pytest.approx(8948 / 1448)

    def test_mathis_known_value(self):
        # MSS=1448, RTT=10ms, p=0.01%: ~ 142 Mbps
        tput = mathis_throughput_bps(1448, 0.01, 1e-4)
        assert tput == pytest.approx(1448 / (0.01 * (2e-4 / 3) ** 0.5) * 8, rel=1e-9)

    def test_padhye_below_mathis(self):
        mathis = mathis_throughput_bps(1448, 0.01, 1e-3)
        padhye = padhye_throughput_bps(1448, 0.01, 1e-3)
        assert padhye < mathis

    def test_zero_loss_unbounded(self):
        assert mathis_throughput_bps(1448, 0.01, 0) == float("inf")

    def test_slow_start_fewer_rtts_with_larger_mss(self):
        small = slow_start_rtts_to_rate(1e9, 1448, 0.01)
        large = slow_start_rtts_to_rate(1e9, 8948, 0.01)
        assert large < small
        assert small - large == pytest.approx(2.6, abs=0.5)  # log2(8948/1448)

    def test_ca_ramp_scales_with_mss(self):
        ramp_small = congestion_avoidance_ramp_bps(1448, 0.01, 10.0)
        ramp_large = congestion_avoidance_ramp_bps(8948, 0.01, 10.0)
        assert ramp_large / ramp_small == pytest.approx(8948 / 1448)
