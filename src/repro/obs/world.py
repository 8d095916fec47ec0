"""A seeded end-to-end world exercising every observed layer.

``run_observed_world(seed)`` builds one deterministic scenario that
touches all six instrumented layers — gateway, worker, resilience
(health + PMTU cache + failover), NIC (RSS + RX rings + hairpin), UPF,
and PMTUD — runs it to completion, and returns the world with a fully
populated :class:`Observability` bundle.  The ``repro obs WHAT``
exports (all but ``incident``) and the observability determinism guard
are built on it: the same seed must yield byte-identical
``to_prometheus_text()`` output and identical tracer sequences.

The world:

* a PXGW between a 9000 B b-network and a 1500 B external network,
  with the resilience layer attached;
* a TCP download (merge datapath) and upload (split datapath);
* UDP bursts inbound (gateway-built caravans) and a host-built caravan
  bulk send outbound (gateway-opened);
* one F-PMTUD probe across the gateway (fragmented on the eMTU link);
* a mid-run failover takeover, so the swapped-in standby carries the
  second half of the traffic (and the flush-timer re-arm is exercised);
* a NIC front-end model fed by a tap on the inside→gateway link:
  flows steer through RSS into bounded RX rings, mice hairpin;
* a standalone seeded UPF run (uplink decap + downlink encap).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .collectors import (
    Observability,
    observe_failover,
    observe_nic,
    observe_pmtud,
    observe_upf,
)
from .tracer import FlowTracer

__all__ = ["ObservedWorld", "WorkloadSchedule", "default_workload_schedule",
           "run_observed_world"]

_PROBER_PORT = 52002
#: Packets at or below this size hairpin past the RX rings (mice).
_HAIRPIN_CUTOFF = 128
#: Sim seconds between the NIC frontend's RX-ring polls.
_NIC_POLL_INTERVAL = 0.01


@dataclass(frozen=True)
class WorkloadSchedule:
    """A deterministic offered-load script for the observed world.

    The schedule is pure data — payload bytes and sim-time instants —
    so two worlds built from the *same* schedule see byte-identical
    offered load regardless of how their gateways are configured.
    That property is what makes twin-world comparisons
    (:mod:`repro.ops`) meaningful: any metric divergence between twins
    is attributable to the deployment, not the workload.

    ``inbound_bursts`` entries are ``(at, start, count)``: at sim time
    ``at``, send ``inbound_payloads[start:start + count]`` as plain UDP
    datagrams from the outside host (the gateway builds caravans).
    ``takeover_at``/``probe_at`` may be ``None`` to skip the failover
    takeover or the F-PMTUD probe entirely.
    """

    seed: int = 0
    download_bytes: int = 48_000
    upload_bytes: int = 24_000
    inbound_payloads: Tuple[bytes, ...] = ()
    inbound_bursts: Tuple[Tuple[float, int, int], ...] = ()
    outbound_payloads: Tuple[bytes, ...] = ()
    outbound_at: float = 0.70
    probe_at: Optional[float] = 0.40
    takeover_at: Optional[float] = 0.9
    settle_until: float = 0.2
    horizon: float = 3.0

    def offered_bytes(self) -> int:
        """Total application bytes this schedule offers (both ways)."""
        return (self.download_bytes + self.upload_bytes
                + sum(len(p) for p in self.inbound_payloads)
                + sum(len(p) for p in self.outbound_payloads))

    def to_dict(self) -> dict:
        """A JSON-safe description (payload *sizes*, not bytes)."""
        return {
            "seed": self.seed,
            "download_bytes": self.download_bytes,
            "upload_bytes": self.upload_bytes,
            "inbound_datagrams": len(self.inbound_payloads),
            "inbound_bursts": [list(b) for b in self.inbound_bursts],
            "outbound_datagrams": len(self.outbound_payloads),
            "outbound_at": self.outbound_at,
            "probe_at": self.probe_at,
            "takeover_at": self.takeover_at,
            "settle_until": self.settle_until,
            "horizon": self.horizon,
            "offered_bytes": self.offered_bytes(),
        }


def default_workload_schedule(seed: int = 0) -> WorkloadSchedule:
    """The canonical observed-world workload, as reusable data: the
    exact workload the observed world has always run."""
    return WorkloadSchedule(
        seed=seed,
        download_bytes=48_000,
        upload_bytes=24_000,
        inbound_payloads=tuple(bytes([1, i & 0xFF]) * 500 for i in range(24)),
        inbound_bursts=((0.30, 0, 12), (0.60, 12, 12)),
        outbound_payloads=tuple(bytes([2, i & 0xFF]) * 600 for i in range(12)),
        outbound_at=0.70,
        probe_at=0.40,
    )


@dataclass
class ObservedWorld:
    """Everything one observed run built and measured."""

    seed: int
    obs: Observability
    topo: object
    gateway: object
    inside: object
    outside: object
    upf: object
    prober: object
    daemon: object
    failover: object
    rss: object
    queues: List[object]
    hairpin: object
    #: In-sim periodic scraper (repro.obs.TelemetryTimeline), stopped.
    timeline: object = None
    #: The timeline's AlertEngine with its recorded transitions.
    alerts: object = None
    notes: Dict[str, object] = field(default_factory=dict)
    #: The four directed links by role (docs/CHAOS.md → "Worlds").
    links: Dict[str, object] = field(default_factory=dict)
    #: Registry snapshots captured at the requested ``snapshot_at``
    #: instants, keyed by sim time.
    snapshots: Dict[float, Dict[str, float]] = field(default_factory=dict)
    #: The deployed GatewayConfig and the workload script that ran.
    config: object = None
    schedule: object = None
    #: Always-on black-box ring (repro.obs.flight.FlightRecorder).
    flight: object = None
    #: Trace-context propagation (adoption hops from failover takeovers).
    trace: object = None


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


def _run_upf(rng: random.Random) -> object:
    """A standalone seeded UPF exercise: uplink decap + downlink encap."""
    from ..packet import GTPU_PORT, GTPUHeader, build_udp, str_to_ip
    from ..upf import Upf

    n3 = str_to_ip("10.100.0.1")
    gnb = str_to_ip("10.100.0.2")
    dn = str_to_ip("93.184.216.34")
    ue_base = str_to_ip("172.16.0.1")
    upf = Upf(n3_address=n3)
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


def run_observed_world(
    seed: int = 0,
    scrape_interval: float = 0.05,
    config=None,
    schedule: Optional[WorkloadSchedule] = None,
    alert_rules=None,
    mutate: Optional[Callable[["ObservedWorld"], None]] = None,
    snapshot_at: Sequence[float] = (),
) -> ObservedWorld:
    """Build and run the observed world for *seed*; returns it populated.

    Beyond PR 4's metrics + tracer, the world now carries the full
    latency-aware stack: a :class:`SpanTracker` wired through the
    gateway/worker/prober, a :class:`TelemetryTimeline` scraping the
    registry every ``scrape_interval`` sim-seconds, and an
    :class:`AlertEngine` running :func:`default_alert_rules` at each
    scrape.  All exports are byte-identical across same-seed runs.

    The deployment and the offered load are injectable for twin-world
    comparisons (:mod:`repro.ops`): *config* deploys an alternative
    :class:`~repro.core.GatewayConfig` on the unchanged physical
    topology, *schedule* supplies the workload script (default:
    :func:`default_workload_schedule`), *alert_rules* replaces the
    stock SLO rules, *snapshot_at* captures registry snapshots at the
    given sim instants into ``world.snapshots``, and *mutate* is called
    with the constructed world after everything is scheduled but before
    any traffic runs — the hook point for fault/attack environments.
    All defaults leave the run byte-identical to the historical one.
    """
    from ..chaos.world import EMTU, IMTU, LinkSpec, WorldSpec, build
    from ..core import GatewayConfig
    from ..nic import HairpinQueue, RssDistributor, RxQueue
    from ..pmtud import FPmtudDaemon, FPmtudProber
    from ..resilience import FailoverManager
    from ..tcpstack import TCPConnection, TCPListener
    from .alerts import AlertEngine, default_alert_rules
    from .flight import FlightRecorder
    from .propagation import TracePropagation
    from .spans import SpanTracker
    from .timeline import TelemetryTimeline

    rng = random.Random(f"obs-world:{seed}")
    if schedule is None:
        schedule = default_workload_schedule(seed)
    obs = Observability(tracer=FlowTracer(8192), spans=SpanTracker())

    if config is None:
        config = GatewayConfig(elephant_threshold_packets=2, header_only_dma=True)
    # The physical MTUs stay 9000 B inside / 1500 B outside whatever
    # *config* believes: that mismatch is what the ops canary catches.
    built = build(WorldSpec(
        seed=880_000 + seed, hosts=("inside", "outside"),
        links=(LinkSpec("inside", "pxgw", IMTU, 10e9, 5e-5, roles=("int_out", "int_in")),
               LinkSpec("pxgw", "outside", EMTU, 10e9, 5e-5, roles=("ext_out", "ext_in"))),
        config=config, inside=("inside",),
    ))
    topo, gateway = built.topo, built.gateway
    inside, outside = built.nodes["inside"], built.nodes["outside"]
    gateway.enable_resilience()
    gateway.attach_observability(obs)

    # The in-sim scraper + SLO alerting, started before any traffic so
    # the first window sees the ramp-up.
    if alert_rules is None:
        alert_rules = default_alert_rules(gateway="pxgw")
    alerts = AlertEngine(alert_rules)
    timeline = TelemetryTimeline(
        topo.sim, obs.registry, interval=scrape_interval, alerts=alerts
    ).start()

    # Failover: periodic checkpoints plus one mid-run takeover, so the
    # standby worker (and the re-armed flush timer) carry the tail of
    # the transfers.
    failover = FailoverManager(gateway, interval=0.25).start()
    observe_failover(obs, failover)
    # Trace-context propagation: takeovers stamp adoption hops on every
    # checkpointed flow.  Pure bookkeeping — no RNG, no sim events.
    trace = TracePropagation(seed=seed)
    failover.observers = (obs.tracer, trace)
    if schedule.takeover_at is not None:
        topo.sim.schedule_at(schedule.takeover_at, failover.takeover)

    # NIC front-end on the inside→gateway link.
    rss = RssDistributor(queues=4)
    queues = [RxQueue(index, capacity=512) for index in range(4)]
    hairpin = HairpinQueue(capacity=256)
    frontend = _NicFrontend(topo.sim, rss, queues, hairpin)
    built.links["int_out"].add_tap(frontend)
    frontend.start()
    observe_nic(obs, queues=queues, hairpin=hairpin, rss=rss)

    # TCP both ways: download exercises merge, upload exercises split.
    download, upload = schedule.download_bytes, schedule.upload_bytes
    down_listener = TCPListener(outside, 80, mss=EMTU - 40)
    up_listener = TCPListener(outside, 9100, mss=EMTU - 40)
    down = TCPConnection(inside, 40000, outside.ip, 80, mss=IMTU - 40)
    up = TCPConnection(inside, 40001, outside.ip, 9100, mss=IMTU - 40)
    down.connect()
    up.connect()

    # UDP caravans both ways.
    inside.enable_caravan_stack(IMTU)
    received_in: List[bytes] = []
    received_out: List[bytes] = []
    inside.on_udp(4433, lambda p, h: received_in.append(p.payload))
    outside.on_udp(5544, lambda p, h: received_out.append(p.payload))
    burst_in = schedule.inbound_payloads

    def inbound_burst(start: int, count: int) -> None:
        for payload in burst_in[start:start + count]:
            outside.send_udp(inside.ip, 4433, 4433, payload)

    for burst_at, start, count in schedule.inbound_bursts:
        topo.sim.schedule_at(burst_at, inbound_burst, start, count)
    if schedule.outbound_payloads:
        topo.sim.schedule_at(schedule.outbound_at, inside.send_udp_bulk,
                             outside.ip, 5544, 5544,
                             list(schedule.outbound_payloads))

    # F-PMTUD across the gateway: the probe fragments on the eMTU link.
    daemon = FPmtudDaemon(outside)
    prober = FPmtudProber(inside, src_port=_PROBER_PORT)
    prober.observers = (obs.tracer, obs.spans)
    observe_pmtud(obs, prober=prober, daemon=daemon)
    pmtud_results: list = []
    if schedule.probe_at is not None:
        topo.sim.schedule_at(
            schedule.probe_at, prober.probe, outside.ip, IMTU,
            pmtud_results.append,
        )

    world = ObservedWorld(
        seed=seed,
        obs=obs,
        topo=topo,
        gateway=gateway,
        inside=inside,
        outside=outside,
        upf=None,
        prober=prober,
        daemon=daemon,
        failover=failover,
        rss=rss,
        queues=queues,
        hairpin=hairpin,
        timeline=timeline,
        alerts=alerts,
        links=built.links,
        config=config,
        schedule=schedule,
        # Always-on black box: pure pull-model references, so the ring
        # is free until someone dumps it.
        flight=FlightRecorder(name=f"world{seed}").wire(
            spans=obs.spans, tracer=obs.tracer,
            timeline=timeline, alerts=alerts,
        ),
        trace=trace,
    )

    # Mid-run registry snapshots (for staged guardrail evaluation) and
    # the environment hook.  Both are no-ops on the default path, so
    # the historical event-sequence numbering — and with it every
    # pinned digest — is untouched.
    if snapshot_at:
        def capture(instant: float) -> None:
            world.snapshots[instant] = obs.registry.snapshot()

        for instant in snapshot_at:
            topo.sim.schedule_at(instant, capture, instant)
    if mutate is not None:
        mutate(world)

    # Let the handshakes settle, then start the bulk transfers.
    topo.run(until=schedule.settle_until)
    if download:
        down_listener.connections[0].send_bulk(download)
    if upload:
        up.send_bulk(upload)
    topo.run(until=schedule.horizon)

    # Stop the scraper before the out-of-sim UPF exercise so the last
    # recorded window reflects only in-sim activity.
    timeline.stop()

    # Standalone UPF exercise (no topology needed).
    upf = _run_upf(rng)
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
