"""Coverage for remaining corners: listeners, topology accessors, engine
counters."""

import pytest

from repro.net import Topology
from repro.packet import TCPFlags, build_tcp
from repro.sim import Simulator
from repro.tcpstack import TCPConnection, TCPListener


class TestListenerConcurrency:
    def topo(self):
        topo = Topology()
        a = topo.add_host("a")
        b = topo.add_host("b")
        server = topo.add_host("server")
        router = topo.add_router("router")
        for host in (a, b, server):
            topo.link(host, router)
        topo.build_routes()
        return topo, a, b, server

    def test_two_clients_one_listener(self):
        topo, a, b, server = self.topo()
        listener = TCPListener(server, 80)
        conn_a = TCPConnection(a, 40000, server.ip, 80)
        conn_b = TCPConnection(b, 40000, server.ip, 80)
        conn_a.connect()
        conn_b.connect()
        topo.run(until=1.0)
        assert len(listener.connections) == 2
        conn_a.send_bulk(10_000)
        conn_b.send_bulk(20_000)
        topo.run(until=3.0)
        delivered = sorted(c.bytes_delivered for c in listener.connections)
        assert delivered == [10_000, 20_000]

    def test_retransmitted_syn_does_not_duplicate_connection(self):
        topo, a, _b, server = self.topo()
        listener = TCPListener(server, 80)
        conn = TCPConnection(a, 40000, server.ip, 80)
        conn.connect()
        topo.run(until=0.5)
        # A stale duplicate SYN arrives after establishment.
        dup_syn = build_tcp(a.ip, server.ip, 40000, 80, flags=TCPFlags.SYN,
                            mss=1460, seq=0)
        a.send(dup_syn)
        topo.run(until=1.0)
        assert len(listener.connections) == 1

    def test_on_accept_callback(self):
        topo, a, _b, server = self.topo()
        accepted = []
        TCPListener(server, 80, on_accept=accepted.append)
        conn = TCPConnection(a, 40000, server.ip, 80)
        conn.connect()
        topo.run(until=1.0)
        assert len(accepted) == 1
        assert accepted[0].peer_port == 40000


class TestTopologyAccessors:
    def test_edge_lookup(self):
        topo = Topology()
        a = topo.add_host("a")
        b = topo.add_host("b")
        forward, backward = topo.link(a, b)
        iface_a, iface_b, link_ab, link_ba = topo.edge(a, b)
        assert link_ab is forward and link_ba is backward
        assert iface_a.node is a and iface_b.node is b
        # Reverse orientation swaps the tuple.
        iface_b2, iface_a2, link_ba2, link_ab2 = topo.edge(b, a)
        assert link_ba2 is backward and iface_b2 is iface_b

    def test_links_iterates_each_direction_once(self):
        topo = Topology()
        a, b, c = topo.add_host("a"), topo.add_host("b"), topo.add_host("c")
        topo.link(a, b)
        topo.link(b, c)
        assert len(list(topo.links())) == 4  # 2 physical links x 2 directions

    def test_run_max_events(self):
        topo = Topology()
        fired = []
        for index in range(5):
            topo.sim.schedule(float(index), fired.append, index)
        topo.run(max_events=2)
        assert fired == [0, 1]


class TestEngineCounters:
    def test_events_processed(self):
        sim = Simulator()
        for _ in range(7):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 7

    def test_cancelled_not_counted(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        sim.run()
        assert sim.events_processed == 0
