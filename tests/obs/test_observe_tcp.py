"""``observe_tcp``: TCP sender state on the registry and the timeline.

The world is Snippet 1's (a Mininet CUBIC run under loss): a sender
whose access link adds 0.1 % loss and 50 ms on egress only, a 10 Mb/s,
100 ms bottleneck with a 100-packet queue, and 40 s of bulk transfer.
"""

from types import SimpleNamespace

import pytest

from repro.chaos.oracle import ChaosTap, trace_digest
from repro.net import Topology
from repro.obs import Observability, TelemetryTimeline, observe_tcp
from repro.sim import Netem
from repro.tcpstack import Cubic, TCPConnection, TCPListener

CWND = 'px_tcp_cwnd_bytes{conn="h1:40000"}'
TIMEOUTS = 'px_tcp_timeouts_total{conn="h1:40000"}'


def snippet1_world(mss, observe=False):
    """Run Snippet 1's world at *mss* for 40 sim-seconds.

    With *observe*, ``observe_tcp`` and a 0.1 s timeline are attached.
    The bottleneck is tapped either way.
    """
    topo = Topology(seed=1)
    sender, receiver, switch = topo.add_host("h1"), topo.add_host("h3"), topo.add_router("s1")
    mtu = mss + 40
    access, _ = topo.link(sender, switch, mtu=mtu, bandwidth_bps=1e9)
    access.netem = Netem(delay=0.05, loss=0.001)  # tc netem on h1-eth0: egress only
    bottleneck, _ = topo.link(switch, receiver, mtu=mtu, bandwidth_bps=10e6,
                              delay=0.1, queue_bytes=100 * mtu)
    run = SimpleNamespace(tap=ChaosTap("bottleneck"), timeline=None)
    bottleneck.add_tap(run.tap)
    topo.build_routes()
    listener = TCPListener(receiver, 5201, mss=mss, cc_class=Cubic)
    run.conn = conn = TCPConnection(sender, 40000, receiver.ip, 5201, mss=mss, cc_class=Cubic)
    if observe:
        obs = Observability()
        observe_tcp(obs, conn)
        run.timeline = TelemetryTimeline(topo.sim, obs.registry, interval=0.1).start()
    conn.connect()
    conn.send_bulk(1 << 40)
    topo.run(until=40.0)
    run.receiver = listener.connections[0]
    return run


def _outcome(run):
    conn = run.conn
    return (run.receiver.bytes_delivered, conn.retransmits, conn.timeouts,
            conn.cc.cwnd, conn.snd_nxt, trace_digest([run.tap]))


@pytest.mark.parametrize("mss", [1460, 8960])
def test_observing_a_lossy_transfer_changes_nothing(mss):
    bare = _outcome(snippet1_world(mss))
    observed = snippet1_world(mss, observe=True)
    assert observed.timeline.ticks == 399
    assert observed.conn.retransmits > 0 and observed.conn.timeouts > 0  # lossy
    assert _outcome(observed) == bare


def test_gauges_appear_once_finite():
    topo = Topology()
    client, server = topo.add_host("client"), topo.add_host("server")
    topo.link(client, server)
    topo.build_routes()
    TCPListener(server, 80)
    conn = TCPConnection(client, 40000, server.ip, 80)
    obs = Observability()
    observe_tcp(obs, conn)

    def published(snapshot):
        return {key.split("{")[0] for key in snapshot}

    assert published(obs.registry.snapshot()) == {
        "px_tcp_retransmits_total", "px_tcp_timeouts_total",
        "px_tcp_flight_bytes", "px_tcp_rto_seconds"}
    conn.connect()
    conn.send_bulk(100_000)
    topo.run(until=1.0)
    after = obs.registry.snapshot()
    label = '{conn="client:40000"}'
    assert after["px_tcp_cwnd_bytes" + label] == conn.cc.cwnd
    assert after["px_tcp_srtt_seconds" + label] == conn.srtt
    assert after["px_tcp_flight_bytes" + label] == 0
    assert "px_tcp_ssthresh_bytes" not in published(after)  # still infinite: no loss
    conn.cc.on_loss()
    assert obs.registry.snapshot()["px_tcp_ssthresh_bytes" + label] == conn.cc.ssthresh
