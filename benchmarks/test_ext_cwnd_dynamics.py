"""Extension — a CUBIC sender's window over time under loss (Snippet 1).

Paper (§2.1, Fig. 1d, §5.2): under loss, throughput grows with the MSS,
because window arithmetic is MSS-denominated.  This benchmark watches
that arithmetic *over time* instead of as one end number: Snippet 1's
Mininet run (``ss -tin`` every 0.1 s around an iperf3 flow) rebuilt on
the simulator, with ``observe_tcp`` plus ``TelemetryTimeline(interval=
0.1)`` as the sampler.

World: the sender's access link is 1 Gb/s with ``tc netem loss 0.1%
delay 50ms`` on egress only (``dev h1-eth0``), so the netem sits on the
forward link; the bottleneck is 10 Mb/s, 100 ms, a 100-packet queue;
CUBIC; 40 s of sim time; RTT 0.25 s.

Finding (committed table, seed 1):

========  ========  ==========  ====  ============  ==========  ===========
MSS       goodput   Mathis      RTOs  in recovery   at 1 MSS    cwnd (MSS)
========  ========  ==========  ====  ============  ==========  ===========
1460      0.36 Mb/s  1.81 Mb/s  1     379 / 399     141 / 399   1 … 350
8960      1.18 Mb/s  11.1 Mb/s  1     355 / 399     347 / 399   1 … 270
========  ========  ==========  ====  ============  ==========  ===========

* MSS 1460 gets a fifth of Mathis: from t ≈ 1.9 s the sender sits in
  NewReno fast recovery and repairs one hole per RTT, although the
  receiver's SACK blocks name the holes; an RTO at t ≈ 25.8 s (278
  segments outstanding) leaves it at 1 MSS for the rest of the run.
* MSS 8960 gets 1.18 Mb/s on a 10 Mb/s path: one RTO at t ≈ 3.5 s with
  271 segments outstanding, after which cwnd reads 1 MSS at 347 of 399
  ticks.  After an RTO the connection stays in NewReno recovery, where
  ``cc.on_ack`` never runs, so RFC 5681's slow start never starts and
  one segment is repaired per RTT (ROADMAP item 4(e)).

ROADMAP 4(e) also records an earlier measurement of this world that
read 0.36 and 1.24 Mb/s, 381 ticks in recovery at MSS 1460 and an RTO at
t ≈ 4.3 s (286 segments outstanding) at MSS 8960.  It differed in seed
and link details; the pattern is the same, and its 347-of-399 count at
1 MSS matches exactly.
"""

from types import SimpleNamespace

import pytest

from repro.chaos.oracle import ChaosTap, trace_digest
from repro.net import Topology
from repro.obs import Observability, TelemetryTimeline, observe_tcp
from repro.sim import Netem
from repro.tcpstack import Cubic, TCPConnection, TCPListener, mathis_throughput_bps

DURATION = 40.0
INTERVAL = 0.1
LOSS = 0.001
RTT = 0.25  # 50 ms netem + 2 x 100 ms bottleneck
CWND = 'px_tcp_cwnd_bytes{conn="h1:40000"}'
TIMEOUTS = 'px_tcp_timeouts_total{conn="h1:40000"}'


def snippet1(mss: int, observe: bool) -> SimpleNamespace:
    topo = Topology(seed=1)
    sender, receiver, switch = topo.add_host("h1"), topo.add_host("h3"), topo.add_router("s1")
    mtu = mss + 40
    access, _ = topo.link(sender, switch, mtu=mtu, bandwidth_bps=1e9)
    access.netem = Netem(delay=0.05, loss=LOSS)
    bottleneck, _ = topo.link(switch, receiver, mtu=mtu, bandwidth_bps=10e6,
                              delay=0.1, queue_bytes=100 * mtu)
    run = SimpleNamespace(tap=ChaosTap("bottleneck"), timeline=None, truth=[])
    bottleneck.add_tap(run.tap)
    topo.build_routes()
    listener = TCPListener(receiver, 5201, mss=mss, cc_class=Cubic)
    run.conn = conn = TCPConnection(sender, 40000, receiver.ip, 5201, mss=mss, cc_class=Cubic)
    if observe:
        obs = Observability()
        observe_tcp(obs, conn)
        # What ``ss -tin`` would print at the scrape: the window and whether
        # the sender is recovering (``observe_tcp`` does not export it).
        obs.registry.register_collector(lambda _registry: run.truth.append(
            (topo.sim.now, conn.cc.cwnd if conn.cc else 0, conn._in_recovery)))
        run.timeline = TelemetryTimeline(topo.sim, obs.registry, interval=INTERVAL).start()
    conn.connect()
    conn.send_bulk(1 << 40)
    topo.run(until=DURATION)
    run.receiver = listener.connections[0]
    run.outcome = (run.receiver.bytes_delivered, conn.retransmits, conn.timeouts,
                   conn.cc.cwnd, conn.snd_nxt, trace_digest([run.tap]))
    return run


def test_ext_cwnd_dynamics(benchmark, report):
    def run():
        return {mss: (snippet1(mss, observe=True), snippet1(mss, observe=False))
                for mss in (1460, 8960)}

    runs = benchmark.pedantic(run, rounds=1, iterations=1)
    table = report("Extension: cwnd dynamics",
                   "Snippet 1 CUBIC under 0.1 % loss, cwnd every 0.1 s for 40 s")
    goodput = {}
    for mss, (observed, bare) in runs.items():
        assert observed.outcome == bare.outcome  # sampling moved nothing
        timeline, truth = observed.timeline, observed.truth[1:]  # [0]: start snapshot
        cwnd = timeline.values(CWND)
        assert timeline.ticks == len(cwnd) == len(truth) == round(DURATION / INTERVAL) - 1
        for (at, value), (when, own, _recovering) in zip(cwnd, truth):
            assert at == when and value == pytest.approx(own)
        assert cwnd[-1][1] == truth[-1][1]  # the last tick is the latest snapshot
        windows = [value / mss for _, value in cwnd if value > 1]  # established
        goodput[mss] = observed.receiver.bytes_delivered * 8 / DURATION
        label = f"MSS {mss}"
        table.add(f"{label} goodput", None, goodput[mss], unit="bps")
        table.add(f"{label} Mathis", None, mathis_throughput_bps(mss, RTT, LOSS),
                  unit="bps", note="closed form, RTT 0.25 s")
        table.add(f"{label} RTOs", None, timeline.values(TIMEOUTS)[-1][1])
        table.add(f"{label} ticks in recovery", None,
                  sum(recovering for *_, recovering in truth), note="of 399")
        table.add(f"{label} ticks at 1 MSS", None,
                  sum(abs(value - 1) < 1e-6 for value in windows), note="of 399")
        table.add(f"{label} cwnd min", None, min(windows), unit="MSS")
        table.add(f"{label} cwnd max", None, max(windows), unit="MSS")
    # The paper's law survives the stuck recovery: a larger MSS moves more.
    assert goodput[8960] > 2 * goodput[1460]
