"""Seeded chaos scenarios: world building, fault planning, execution.

One scenario = (profile, seed).  The seed alone determines the world's
impairment parameters, the fault schedule, and therefore — because the
simulator, the netem rngs, and the injectors are all deterministic —
the entire packet-level execution.  ``run_scenario(profile, seed)``
twice returns identical oracle verdicts and identical trace digests,
which is what makes every chaos failure replayable and shrinkable.

Profiles:

* ``tcp``     — bulk transfers both ways (merge + split datapaths);
* ``caravan`` — UDP datagram streams both ways (caravan build/open);
* ``mixed``   — TCP download and caravans concurrently, sharing the
  gateway's merge machinery and flush timer;
* ``pmtud``   — F-PMTUD discovery across a hidden bottleneck, with
  probe/fragment/report losses forcing timeout-driven retries.

Every fault has a finite hit count, so each scenario reaches a
fault-free steady state in which TCP retransmission and F-PMTUD
retries must converge — the oracle then checks the end state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core import FPMTUD_PORT, GatewayConfig
from ..obs import Observability, SpanTracker
from ..packet import IPProto
from ..pmtud import FPmtudDaemon, FPmtudProber
from ..sim import Netem
from ..tcpstack import TCPConnection, TCPListener
from .faults import (
    Fault,
    FaultLog,
    FaultPlan,
    GatewayFault,
    Match,
    apply_gateway_faults,
)
from .oracle import InvariantOracle, trace_digest
from .world import EMTU, IMTU, LinkSpec, World, WorldSpec, build

__all__ = [
    "PROFILES",
    "ChaosWorld",
    "ScenarioResult",
    "build_plan",
    "build_world",
    "run_scenario",
    "corpus",
]

PROFILES = ("tcp", "caravan", "mixed", "pmtud")

#: The prober's source port (reports come back to it as plain UDP).
PROBER_PORT = 52000

_INSIDE_MSS = IMTU - 40
_OUTSIDE_MSS = EMTU - 40

#: Candidate hidden-bottleneck MTUs for the pmtud profile.
_PMTUD_BOTTLENECKS = (1280, 1356, 1408, 1444)


@dataclass
class ChaosWorld(World):
    """A built border world (roles: docs/CHAOS.md → "Worlds") plus its chaos probes."""

    inside: object  # Host
    outside: object  # Host
    log: FaultLog
    #: The resilience HealthMonitor attached to the gateway.
    monitor: object
    #: Observability bundle: metrics registry + span tracker, no tracer.
    #: Both are read-only mirrors of the datapath, so attaching them
    #: cannot perturb the digests (the perturbation guard pins this).
    obs: Observability
    mid_mtu: Optional[int] = None


@dataclass
class ScenarioResult:
    """Everything one chaos run produced."""

    profile: str
    seed: int
    plan: FaultPlan
    violations: List[str]
    digest: str
    checks_run: int
    faults_fired: int
    notes: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        verdict = "OK" if self.ok else f"{len(self.violations)} violation(s)"
        return (
            f"<Scenario {self.profile}/{self.seed} {verdict} "
            f"faults={self.faults_fired} digest={self.digest[:12]}>"
        )


# ----------------------------------------------------------------------
# World construction
# ----------------------------------------------------------------------
def build_world(profile: str, seed: int) -> ChaosWorld:
    """Build the (deterministic) topology for one scenario."""
    rng = random.Random(f"world:{profile}:{seed}")
    links = [LinkSpec("inside", "pxgw", IMTU, 10e9, 5e-5, roles=("int_out", "int_in"))]
    mid_mtu: Optional[int] = None
    if profile == "pmtud":
        mid_mtu = rng.choice(_PMTUD_BOTTLENECKS)
        links += [LinkSpec("pxgw", "mid", EMTU, 10e9, 2e-4, roles=("ext_out", "ext_in")),
                  LinkSpec("mid", "outside", mid_mtu, 10e9, 2e-4,
                           roles=("far_out", "far_in"))]
    else:
        # Seed-chosen ambient impairment: delay/jitter/reorder only, no
        # probabilistic loss, so the injected-fault accounting the
        # oracle budgets against stays exact.
        netem = None
        if rng.random() < 0.6:
            netem = Netem(
                delay=rng.uniform(2e-4, 2e-3),
                jitter=rng.uniform(0.0, 3e-4),
                reorder=rng.choice([0.0, 0.0, 0.02]),
                reorder_extra=1e-3,
                seed=rng.getrandbits(32),
            )
        links.append(LinkSpec("pxgw", "outside", EMTU, 10e9, 5e-5, netem,
                              roles=("ext_out", "ext_in")))
    world = build(WorldSpec(
        seed=424242, hosts=("inside", "outside"), links=tuple(links),
        config=GatewayConfig(elephant_threshold_packets=2, header_only_dma=True),
        routers=("mid",) if mid_mtu else (), inside=("inside",),
        taps=tuple(role for link in links for role in link.roles),
    ))
    # The resilience layer under test: every scenario must end with the
    # gateway back in HEALTHY (oracle check 5).
    monitor = world.gateway.enable_resilience()
    # Metrics registry + span tracker under test: the oracle reconciles
    # the registry exports against the live conservation counters and
    # asserts the span-balance identity at scenario end.  Both are
    # read-only mirrors of the datapath (scrape-time pull collectors;
    # span FIFOs driven by worker hooks that never touch packets, RNGs,
    # or scheduling), so the chaos digests cannot move — the
    # perturbation guard in tests/obs pins that.
    obs = world.gateway.attach_observability(Observability(spans=SpanTracker()))
    return ChaosWorld(**vars(world), inside=world.nodes["inside"],
                      outside=world.nodes["outside"], log=FaultLog(),
                      mid_mtu=mid_mtu, monitor=monitor, obs=obs)


# ----------------------------------------------------------------------
# Fault planning
# ----------------------------------------------------------------------
def _tcp_fault(rng: random.Random, link: str) -> Fault:
    action = rng.choice(["drop", "duplicate", "reorder", "corrupt", "delay"])
    # Scale nth to the link's data-packet volume: the upload crossing
    # int_out is a handful of jumbo segments, while the download on
    # ext_in is dozens of eMTU segments — an nth beyond the traffic
    # would silently never fire.
    max_nth = 4 if link == "int_out" else 30
    return Fault(
        action=action,
        link=link,
        match=Match(protocol=IPProto.TCP, min_payload=1),
        nth=rng.randint(1, max_nth),
        count=rng.randint(1, 2),
        delay=rng.uniform(1e-3, 6e-3),
    )


def _udp_fault(rng: random.Random, link: str) -> Fault:
    action = rng.choice(["drop", "duplicate", "reorder", "corrupt", "truncate", "delay"])
    return Fault(
        action=action,
        link=link,
        match=Match(protocol=IPProto.UDP, min_payload=1),
        nth=rng.randint(1, 10),
        count=1,
        delay=rng.uniform(1e-3, 5e-3),
        truncate_to=rng.choice([8, 24, 96]),
    )


def _gateway_fault(rng: random.Random) -> GatewayFault:
    kind = rng.choice(["stall", "eviction_storm", "nic_pressure"])
    return GatewayFault(
        kind=kind,
        at=rng.uniform(0.05, 0.8),
        duration=rng.uniform(0.5e-3, 6e-3),
        contexts=1,
        nic_memory_bytes=rng.choice([0, 4096, 20_000]),
    )


def build_plan(profile: str, seed: int) -> FaultPlan:
    """Derive the scenario's complete fault schedule from its seed."""
    rng = random.Random(f"plan:{profile}:{seed}")
    plan = FaultPlan()

    if profile == "pmtud":
        for _ in range(rng.randint(1, 3)):
            choice = rng.random()
            if choice < 0.4:
                # Lose probe fragments crossing the bottleneck region.
                plan.link_faults.append(Fault(
                    action="drop",
                    link=rng.choice(["ext_out", "far_out"]),
                    match=Match(fragments=True),
                    nth=rng.randint(1, 4),
                    count=rng.randint(1, 2),
                ))
            elif choice < 0.6:
                # Lose the whole probe before it fragments.
                plan.link_faults.append(Fault(
                    action="drop",
                    link="int_out",
                    match=Match(protocol=IPProto.UDP, dst_port=FPMTUD_PORT),
                    nth=rng.randint(1, 2),
                ))
            elif choice < 0.8:
                # Lose the daemon's report on the way back.
                plan.link_faults.append(Fault(
                    action="drop",
                    link=rng.choice(["far_in", "ext_in"]),
                    match=Match(protocol=IPProto.UDP, dst_port=PROBER_PORT),
                    nth=1,
                ))
            else:
                plan.link_faults.append(Fault(
                    action="delay",
                    link="ext_out",
                    match=Match(fragments=True),
                    nth=rng.randint(1, 4),
                    delay=rng.uniform(1e-3, 2e-2),
                ))
        if rng.random() < 0.4:
            plan.gateway_faults.append(GatewayFault(
                kind="stall", at=rng.uniform(0.0, 0.5),
                duration=rng.uniform(1e-3, 8e-3),
            ))
        return plan

    for _ in range(rng.randint(2, 4)):
        if profile == "tcp":
            plan.link_faults.append(_tcp_fault(rng, rng.choice(["ext_in", "int_out"])))
        elif profile == "caravan":
            plan.link_faults.append(_udp_fault(rng, rng.choice(["ext_in", "int_in", "int_out"])))
        else:  # mixed
            if rng.random() < 0.5:
                plan.link_faults.append(_tcp_fault(rng, "ext_in"))
            else:
                plan.link_faults.append(_udp_fault(rng, rng.choice(["ext_in", "int_in"])))
    if rng.random() < 0.5:
        plan.gateway_faults.append(_gateway_fault(rng))
    return plan


# ----------------------------------------------------------------------
# Workloads (one per profile)
# ----------------------------------------------------------------------
def _await_handshakes(world: ChaosWorld, listeners: list, horizon: float = 4.0) -> float:
    """Run until every listener has accepted a connection (bounded)."""
    deadline = 0.25
    world.topo.run(until=deadline)
    while any(not lst.connections for lst in listeners) and deadline < horizon:
        deadline += 0.25
        world.topo.run(until=deadline)
    return deadline


def _check_gateway(world: ChaosWorld, oracle: InvariantOracle) -> None:
    oracle.check_gateway_stats(world.gateway)
    oracle.check_recovery(world.monitor)
    oracle.check_registry(world.obs.registry, world.gateway)
    oracle.check_spans(world.obs.spans, world.gateway)


def _check_common(world: ChaosWorld, oracle: InvariantOracle) -> None:
    _check_gateway(world, oracle)
    oracle.check_segment_sizes(world.taps["int_in"], IMTU, _INSIDE_MSS)
    oracle.check_segment_sizes(world.taps["int_out"], IMTU, _INSIDE_MSS)
    oracle.check_segment_sizes(world.taps["ext_in"], EMTU, _OUTSIDE_MSS)
    oracle.check_segment_sizes(world.taps["ext_out"], EMTU, _OUTSIDE_MSS)
    oracle.check_frag_needed(world.taps["int_out"], world.taps["int_in"], world.gateway)
    oracle.check_frag_needed(world.taps["ext_in"], world.taps["ext_out"], world.gateway)
    # The gateway may only ever emit TCP bytes it has already received,
    # in both crossing directions.
    oracle.check_tcp_seq_coverage(world.taps["ext_in"], world.taps["int_in"])
    oracle.check_tcp_seq_coverage(world.taps["int_out"], world.taps["ext_out"])


def _run_tcp(world: ChaosWorld, oracle: InvariantOracle) -> Dict[str, object]:
    down_bytes, up_bytes = 60_000, 30_000
    # Download: outside server sends to inside (the merge datapath).
    down_listener = TCPListener(world.outside, 80, mss=_OUTSIDE_MSS)
    down = TCPConnection(world.inside, 40000, world.outside.ip, 80, mss=_INSIDE_MSS)
    # Upload: inside sends jumbos toward outside (the split datapath).
    up_listener = TCPListener(world.outside, 9100, mss=_OUTSIDE_MSS)
    up = TCPConnection(world.inside, 40001, world.outside.ip, 9100, mss=_INSIDE_MSS)
    down.connect()
    up.connect()
    settled = _await_handshakes(world, [down_listener, up_listener])

    if oracle.expect(
        bool(down_listener.connections) and bool(up_listener.connections),
        "tcp-stream", "handshake(s) never completed",
    ):
        down_listener.connections[0].send_bulk(down_bytes)
        up.send_bulk(up_bytes)
        world.topo.run(until=settled + 10.0)
        oracle.check_tcp_stream("download", down_bytes, down)
        oracle.check_tcp_stream("upload", up_bytes, up_listener.connections[0])
    _check_common(world, oracle)
    return {
        "downloaded": down.bytes_delivered,
        "uploaded": up_listener.connections[0].bytes_delivered
        if up_listener.connections else 0,
        "merged": world.gateway.stats.merged_packets,
        "split": world.gateway.stats.split_segments,
    }


def _unique_payloads(tag: int, count: int, size: int) -> List[bytes]:
    return [(bytes([tag, i & 0xFF]) * size)[:size] for i in range(count)]


def _setup_datagram_flows(world: ChaosWorld) -> Dict[str, list]:
    """Inbound bursts (outside->inside, gateway-built caravans) plus an
    outbound bulk send (inside->outside, host-built caravans)."""
    world.inside.enable_caravan_stack(IMTU)
    received_in: List[bytes] = []
    received_out: List[bytes] = []
    world.inside.on_udp(4433, lambda p, h: received_in.append(p.payload))
    world.outside.on_udp(5544, lambda p, h: received_out.append(p.payload))

    sent_in = _unique_payloads(1, 36, 1000)
    sent_out = _unique_payloads(2, 16, 1200)
    sim = world.topo.sim

    def burst(start: int) -> None:
        for payload in sent_in[start:start + 12]:
            world.outside.send_udp(world.inside.ip, 4433, 4433, payload)

    sim.schedule_at(0.05, burst, 0)
    sim.schedule_at(0.10, burst, 12)
    sim.schedule_at(0.15, burst, 24)
    sim.schedule_at(0.22, world.inside.send_udp_bulk,
                    world.outside.ip, 5544, 5544, sent_out)
    return {
        "sent_in": sent_in, "received_in": received_in,
        "sent_out": sent_out, "received_out": received_out,
    }


def _check_datagram_flows(world: ChaosWorld, oracle: InvariantOracle,
                          flows: Dict[str, list]) -> None:
    loss = world.log.udp_datagrams_lost
    dup = world.log.udp_datagrams_duplicated
    mutated = (world.log.udp_datagrams_mutated
               + world.gateway.stats.udp_datagrams_malformed)
    oracle.check_datagram_flow(
        "inbound", flows["sent_in"], flows["received_in"],
        loss_budget=loss, dup_budget=dup, mutation_budget=mutated,
    )
    oracle.check_datagram_flow(
        "outbound", flows["sent_out"], flows["received_out"],
        loss_budget=loss, dup_budget=dup, mutation_budget=mutated,
    )


def _run_caravan(world: ChaosWorld, oracle: InvariantOracle) -> Dict[str, object]:
    flows = _setup_datagram_flows(world)
    world.topo.run(until=2.5)
    _check_datagram_flows(world, oracle, flows)
    _check_common(world, oracle)
    return {
        "delivered_in": len(flows["received_in"]),
        "delivered_out": len(flows["received_out"]),
        "caravans_built": world.gateway.stats.caravans_built,
        "caravans_opened": world.gateway.stats.caravans_opened,
        "decode_errors": world.inside.caravan_decode_errors,
    }


def _run_mixed(world: ChaosWorld, oracle: InvariantOracle) -> Dict[str, object]:
    down_bytes = 45_000
    down_listener = TCPListener(world.outside, 80, mss=_OUTSIDE_MSS)
    down = TCPConnection(world.inside, 40000, world.outside.ip, 80, mss=_INSIDE_MSS)
    flows = _setup_datagram_flows(world)
    down.connect()
    settled = _await_handshakes(world, [down_listener])

    if oracle.expect(bool(down_listener.connections),
                     "tcp-stream", "download handshake never completed"):
        down_listener.connections[0].send_bulk(down_bytes)
        world.topo.run(until=settled + 10.0)
        oracle.check_tcp_stream("download", down_bytes, down)
    _check_datagram_flows(world, oracle, flows)
    _check_common(world, oracle)
    return {
        "downloaded": down.bytes_delivered,
        "delivered_in": len(flows["received_in"]),
        "delivered_out": len(flows["received_out"]),
    }


def _run_pmtud(world: ChaosWorld, oracle: InvariantOracle) -> Dict[str, object]:
    FPmtudDaemon(world.outside)
    prober = FPmtudProber(world.inside, src_port=PROBER_PORT)
    results: list = []
    attempts = [0]
    max_attempts = 5

    def launch() -> None:
        attempts[0] += 1
        prober.probe(world.outside.ip, IMTU, results.append,
                     timeout=0.8, on_timeout=on_timeout)

    def on_timeout() -> None:
        if attempts[0] < max_attempts and not results:
            launch()

    launch()
    world.topo.run(until=6.0)

    true_min = min(EMTU, world.mid_mtu or EMTU)
    oracle.check_pmtud(results, true_min)
    _check_gateway(world, oracle)
    oracle.check_segment_sizes(world.taps["ext_in"], EMTU)
    oracle.check_segment_sizes(world.taps["far_in"], world.mid_mtu or EMTU)
    return {
        "attempts": attempts[0],
        "pmtu": results[-1].pmtu if results else None,
        "bottleneck": world.mid_mtu,
    }


_WORKLOADS: Dict[str, Callable[[ChaosWorld, InvariantOracle], Dict[str, object]]] = {
    "tcp": _run_tcp,
    "caravan": _run_caravan,
    "mixed": _run_mixed,
    "pmtud": _run_pmtud,
}


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def run_scenario(
    profile: str,
    seed: int,
    plan: Optional[FaultPlan] = None,
    mutate: Optional[Callable[[ChaosWorld], None]] = None,
) -> ScenarioResult:
    """Run one seeded chaos scenario end to end.

    *plan* overrides the seed-derived schedule (used by the shrinker);
    *mutate* is applied to the built world before the workload starts
    (used to plant known-bad gateway behaviour the oracle must catch).
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r} (have {PROFILES})")
    if plan is None:
        plan = build_plan(profile, seed)
    world = build_world(profile, seed)
    world.install(plan.injectors(world.log))
    apply_gateway_faults(plan, world.gateway)
    if mutate is not None:
        mutate(world)

    oracle = InvariantOracle()
    notes = _WORKLOADS[profile](world, oracle)
    notes["health"] = world.monitor.summary()
    return ScenarioResult(
        profile=profile,
        seed=seed,
        plan=plan,
        violations=list(oracle.violations),
        digest=trace_digest(world.taps.values()),
        checks_run=oracle.checks_run,
        faults_fired=world.log.faults_fired,
        notes=notes,
    )


def corpus(count: int = 56) -> "List[Tuple[str, int]]":
    """The standard (profile, seed) matrix the chaos suite runs."""
    return [(PROFILES[index % len(PROFILES)], 101 + 7 * index)
            for index in range(count)]
