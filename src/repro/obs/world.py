"""One fixed end-to-end world exercising every observed layer.

``run_observed_world()`` builds one deterministic scenario that
touches all six instrumented layers — gateway, worker, resilience
(health + PMTU cache), NIC (RSS + RX rings + hairpin), UPF,
and PMTUD — runs it to completion, and returns the world with a fully
populated :class:`Observability` bundle.  Every ``repro obs WHAT``
export and the observability determinism guard are built on it: two
runs must yield byte-identical ``to_prometheus_text()`` output and
identical tracer events.  There is one world, not one per seed: no
consumer needs a second one.

The world:

* a PXGW between a 9000 B b-network and a 1500 B external network,
  with the resilience layer attached;
* a TCP download (merge datapath) and upload (split datapath);
* UDP bursts inbound (gateway-built caravans) and a host-built caravan
  bulk send outbound (gateway-opened);
* one F-PMTUD probe across the gateway (fragmented on the eMTU link);
* a NIC front-end model fed by a tap on the inside→gateway link:
  flows steer through RSS into bounded RX rings, mice hairpin;
* a standalone UPF run (uplink decap + downlink encap).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

from .collectors import (
    Observability,
    observe_nic,
    observe_pmtud,
    observe_upf,
)
from .tracer import FlowTracer

__all__ = ["ObservedWorld", "run_observed_world"]

_PROBER_PORT = 52002
#: Packets at or below this size hairpin past the RX rings (mice).
_HAIRPIN_CUTOFF = 128
#: Sim seconds between the NIC frontend's RX-ring polls.
_NIC_POLL_INTERVAL = 0.01


@dataclass
class ObservedWorld:
    """Everything one observed run built and measured."""

    obs: Observability
    topo: object
    gateway: object
    inside: object
    outside: object
    upf: object
    prober: object
    #: In-sim periodic scraper (repro.obs.TelemetryTimeline), stopped.
    timeline: object = None
    #: The timeline's AlertEngine with its recorded transitions.
    alerts: object = None
    notes: Dict[str, object] = field(default_factory=dict)
    #: The four directed links by role (docs/CHAOS.md → "Worlds").
    links: Dict[str, object] = field(default_factory=dict)
    #: Pull-model black box (repro.obs.flight.FlightRecorder).
    flight: object = None


class _NicFrontend:
    """A link tap modelling the NIC receive path ahead of the worker.

    Every packet delivered on the tapped link is steered: mice go to
    the hairpin ring, everything with a flow key goes through RSS into
    its RX ring.  Rings are drained by a periodic poll, so the depth
    gauges show live occupancy and the drop counters stay honest.
    """

    def __init__(self, sim, rss, queues, hairpin):
        self.sim = sim
        self.rss = rss
        self.queues = queues
        self.hairpin = hairpin
        self._polling = False

    def __call__(self, event: str, packet, now: float) -> None:
        if event != "rx":
            return
        if packet.total_len <= _HAIRPIN_CUTOFF:
            self.hairpin.push(packet)
            return
        flow = packet.flow_key()
        if flow is None:
            return
        self.queues[self.rss.queue_for(flow)].push(packet)

    def start(self) -> None:
        if not self._polling:
            self._polling = True
            self.sim.schedule(_NIC_POLL_INTERVAL, self._poll)

    def _poll(self) -> None:
        for queue in self.queues:
            queue.poll(budget=64)
        self.hairpin.drain()
        self.sim.schedule(_NIC_POLL_INTERVAL, self._poll)


def _run_upf() -> object:
    """A standalone UPF exercise: uplink decap + downlink encap."""
    from ..packet import GTPU_PORT, GTPUHeader, build_udp, str_to_ip
    from ..upf import Upf

    n3 = str_to_ip("10.100.0.1")
    gnb = str_to_ip("10.100.0.2")
    dn = str_to_ip("93.184.216.34")
    ue_base = str_to_ip("172.16.0.1")
    upf = Upf(n3_address=n3)
    rng = random.Random("obs-world:0")  # the payload bytes
    sessions = 4
    for index in range(sessions):
        upf.sessions.create_session(
            seid=index, ue_ip=ue_base + index, uplink_teid=10_000 + index,
            gnb_teid=20_000 + index, gnb_ip=gnb,
        )
    for index in range(40):
        session = index % sessions
        if index % 2:
            # Downlink: data network toward a UE, encapsulated out.
            upf.process(build_udp(
                dn, ue_base + session, 80, 4000,
                payload=bytes(rng.randrange(256) for _ in range(600)),
            ))
        else:
            # Uplink: a GTP-U tunnel from the gNB, decapsulated.
            inner = build_udp(
                ue_base + session, dn, 4000, 80,
                payload=bytes(rng.randrange(256) for _ in range(500)),
            )
            inner_bytes = inner.to_bytes()
            gtpu = GTPUHeader(teid=10_000 + session)
            upf.process(build_udp(
                gnb, n3, GTPU_PORT, GTPU_PORT,
                payload=gtpu.pack(payload_len=len(inner_bytes)) + inner_bytes,
            ))
    return upf


def run_observed_world(scrape_interval: float = 0.05) -> ObservedWorld:
    """Build and run the observed world; returns it populated.

    Beside the metrics and the tracer, the world carries a
    :class:`SpanTracker` wired through the gateway/worker/prober, a
    :class:`TelemetryTimeline` scraping the registry every
    ``scrape_interval`` sim-seconds, and an :class:`AlertEngine`
    running :func:`default_alert_rules` at each scrape.
    """
    from ..chaos.world import EMTU, IMTU, LinkSpec, WorldSpec, build
    from ..core import GatewayConfig
    from ..nic import HairpinQueue, RssDistributor, RxQueue
    from ..pmtud import FPmtudDaemon, FPmtudProber
    from ..tcpstack import TCPConnection, TCPListener
    from .alerts import AlertEngine, default_alert_rules
    from .flight import FlightRecorder
    from .spans import SpanTracker
    from .timeline import TelemetryTimeline

    obs = Observability(tracer=FlowTracer(8192), spans=SpanTracker())

    built = build(WorldSpec(
        seed=880_000, hosts=("inside", "outside"),
        links=(LinkSpec("inside", "pxgw", IMTU, 10e9, 5e-5, roles=("int_out", "int_in")),
               LinkSpec("pxgw", "outside", EMTU, 10e9, 5e-5, roles=("ext_out", "ext_in"))),
        config=GatewayConfig(elephant_threshold_packets=2, header_only_dma=True),
        inside=("inside",),
    ))
    topo, gateway = built.topo, built.gateway
    inside, outside = built.nodes["inside"], built.nodes["outside"]
    gateway.enable_resilience()
    gateway.attach_observability(obs)

    # Everything below schedules sim events in a fixed order; the
    # simulator numbers events in that order, and every pinned digest
    # of this world depends on the numbering.

    # The in-sim scraper + SLO alerting, started before any traffic so
    # the first window sees the ramp-up.
    alerts = AlertEngine(default_alert_rules(gateway="pxgw"))
    timeline = TelemetryTimeline(
        topo.sim, obs.registry, interval=scrape_interval, alerts=alerts
    ).start()

    # NIC front-end on the inside→gateway link.
    rss = RssDistributor(queues=4)
    queues = [RxQueue(index, capacity=512) for index in range(4)]
    hairpin = HairpinQueue(capacity=256)
    frontend = _NicFrontend(topo.sim, rss, queues, hairpin)
    built.links["int_out"].add_tap(frontend)
    frontend.start()
    observe_nic(obs, queues=queues, hairpin=hairpin, rss=rss)

    # TCP both ways: download exercises merge, upload exercises split.
    down_listener = TCPListener(outside, 80, mss=EMTU - 40)
    up_listener = TCPListener(outside, 9100, mss=EMTU - 40)
    down = TCPConnection(inside, 40000, outside.ip, 80, mss=IMTU - 40)
    up = TCPConnection(inside, 40001, outside.ip, 9100, mss=IMTU - 40)
    down.connect()
    up.connect()

    # UDP caravans both ways: two inbound bursts of 12 plain datagrams
    # (the gateway builds caravans), then one host-built caravan bulk
    # send outbound (the gateway opens it).
    inside.enable_caravan_stack(IMTU)
    received_in: List[bytes] = []
    received_out: List[bytes] = []
    inside.on_udp(4433, lambda p, h: received_in.append(p.payload))
    outside.on_udp(5544, lambda p, h: received_out.append(p.payload))
    burst_in = [bytes([1, i & 0xFF]) * 500 for i in range(24)]

    def inbound_burst(start: int, count: int) -> None:
        for payload in burst_in[start:start + count]:
            outside.send_udp(inside.ip, 4433, 4433, payload)

    topo.sim.schedule_at(0.30, inbound_burst, 0, 12)
    topo.sim.schedule_at(0.60, inbound_burst, 12, 12)
    topo.sim.schedule_at(0.70, inside.send_udp_bulk, outside.ip, 5544, 5544,
                         [bytes([2, i & 0xFF]) * 600 for i in range(12)])

    # F-PMTUD across the gateway: the probe fragments on the eMTU link.
    daemon = FPmtudDaemon(outside)
    prober = FPmtudProber(inside, src_port=_PROBER_PORT)
    prober.observers = (obs.tracer, obs.spans)
    observe_pmtud(obs, prober=prober, daemon=daemon)
    pmtud_results: list = []
    topo.sim.schedule_at(0.40, prober.probe, outside.ip, IMTU,
                         pmtud_results.append)

    world = ObservedWorld(
        obs=obs,
        topo=topo,
        gateway=gateway,
        inside=inside,
        outside=outside,
        upf=None,
        prober=prober,
        timeline=timeline,
        alerts=alerts,
        links=built.links,
        # Pure pull-model references: free until someone dumps it.
        flight=FlightRecorder().wire(
            spans=obs.spans, tracer=obs.tracer,
            timeline=timeline, alerts=alerts,
        ),
    )

    # Let the handshakes settle, then start the bulk transfers.
    topo.run(until=0.2)
    down_listener.connections[0].send_bulk(48_000)
    up.send_bulk(24_000)
    topo.run(until=3.0)

    # Stop the scraper before the out-of-sim UPF exercise so the last
    # recorded window reflects only in-sim activity.
    timeline.stop()

    # Standalone UPF exercise (no topology needed).
    upf = _run_upf()
    observe_upf(obs, upf)

    world.upf = upf
    world.notes = {
        "downloaded": down.bytes_delivered,
        "uploaded": up_listener.connections[0].bytes_delivered
        if up_listener.connections else 0,
        "datagrams_in": len(received_in),
        "datagrams_out": len(received_out),
        "pmtu": pmtud_results[-1].pmtu if pmtud_results else None,
    }
    return world
