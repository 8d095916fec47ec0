"""Adversarial PMTUD scenarios: attacker models vs. the hardened stack.

The chaos corpus (:mod:`repro.chaos.scenarios`) asks "does the datapath
survive an *unreliable* network?".  This module asks the complementary
question: "does the PMTUD control plane survive a *hostile* one?".  An
attack world is a chaos world plus an off-path attacker host hanging
off the middle router (routers here do no uRPF, so the attacker can
send packets with any spoofed source that route normally) and a
neighbour host sharing the victim's gateway — the address-sharing
setting where one flow's poisoned PMTU can hurt another's.

Every scenario is run **differentially**: once with
:meth:`~repro.pmtud.hardening.HardeningPolicy.hardened` and once with
:meth:`~repro.pmtud.hardening.HardeningPolicy.unhardened` defenses.
The unhardened stack must be measurably *compromised* (it accepts a
forged value, mis-sizes gateway splits into micro-segments, or emits
oversized packets that blackhole at the bottleneck) while the hardened
stack must not — that difference is what proves each defense earns its
place.  Runs are fully deterministic: same (name, seed, hardened) →
identical :attr:`AttackResult.digest`.

The observability tie-in (PR 5): every attack world carries a metrics
registry, an in-sim :class:`~repro.obs.TelemetryTimeline`, and an
:class:`~repro.obs.AlertEngine` on :func:`~repro.obs.alerts.adversarial_alert_rules`,
so a report flood that starves the PMTU cache shows up as the
``pmtu-cache-miss-spike`` alert FIRING mid-run — attacks are *detected*,
not just survived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core import GatewayConfig
from ..obs import (
    AlertEngine,
    Observability,
    SpanTracker,
    TelemetryTimeline,
    observe_pmtud,
)
from ..obs.alerts import adversarial_alert_rules
from ..packet import ICMPMessage, IPProto, build_icmp, build_tcp, build_udp
from ..pmtud import ECHO_PORT, FPmtudDaemon, FPmtudProber, Plpmtud, ProbeEchoDaemon
from ..pmtud.classical import ClassicalPmtud
from ..pmtud.echo import pack_echo_ack
from ..pmtud.fpmtud import _pack_report
from ..pmtud.hardening import HardeningPolicy
from ..resilience import PmtuCache, ResilientPmtud
from ..resilience.ptb import PtbListener
from ..tcpstack import TCPConnection, TCPListener
from .faults import AttackFault, Fault, FaultLog, FaultPlan, LyingDaemonInjector, Match
from .oracle import ChaosTap, InvariantOracle, trace_digest
from .scenarios import PROBER_PORT
from .world import EMTU, IMTU, LinkSpec, World, WorldSpec, build

__all__ = [
    "AttackWorld",
    "AttackResult",
    "ATTACK_SCENARIOS",
    "apply_attack_faults",
    "attack_corpus",
    "build_attack_world",
    "build_attack_plan",
    "run_attack_scenario",
    "run_differential",
]

#: The hidden bottleneck between the middle router and the server.
BOTTLENECK_MTU = 1280

#: Source ports of the victim's discovery agents (what a forger must
#: reach; well-known here, as they would be to a determined attacker).
PLPMTUD_PORT = 54000
CLASSICAL_PORT = 53000

#: The victim's and neighbour's upload flows (4-tuples an off-path
#: attacker is assumed to know — they are guessable in practice).
VICTIM_FLOW = ("victim", 40001, "server", 9100)
NEIGHBOR_FLOW = ("neighbor", 41001, "server", 9101)


@dataclass
class AttackWorld(World):
    """A chaos world with an adversary attached."""

    #: The peer every workload discovers toward and uploads to.
    server: object
    log: FaultLog
    policy: HardeningPolicy
    hardened: bool
    #: Discovery agents (all policy-carrying).
    prober: FPmtudProber
    plpmtud: Plpmtud
    classical: ClassicalPmtud
    resilient: ResilientPmtud
    ptb_victim: PtbListener
    ptb_neighbor: PtbListener
    obs: Observability
    alerts: AlertEngine
    timeline: TelemetryTimeline


@dataclass
class AttackResult:
    """Everything one adversarial run produced."""

    name: str
    seed: int
    hardened: bool
    #: Did the attack land?  Per-scenario predicate over the notes —
    #: forged value accepted, micro-segments emitted, oversized packets
    #: blackholed, or a neighbour's poison bleeding across flows.
    compromised: bool
    violations: List[str]
    digest: str
    estimates: List[int]
    notes: Dict[str, object] = field(default_factory=dict)
    #: Final alert states plus every rule that fired mid-run.
    alerts: Dict[str, object] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "hardened" if self.hardened else "unhardened"
        verdict = "COMPROMISED" if self.compromised else "safe"
        return f"<Attack {self.name}/{self.seed} {mode} {verdict}>"


# ----------------------------------------------------------------------
# World construction
# ----------------------------------------------------------------------
def build_attack_world(seed: int, hardened: bool) -> AttackWorld:
    """Build the adversarial topology: victim+neighbor | PXGW | mid | server,
    with the attacker hanging off the mid router."""
    policy = HardeningPolicy.hardened() if hardened else HardeningPolicy.unhardened()
    config = GatewayConfig(elephant_threshold_packets=2, header_only_dma=True)
    # External links are deliberately slow (100 Mb/s): uploads must
    # still be in flight while the attacks run, so mis-sizing shows up
    # in the packet stream rather than racing the transfer's end.
    world = build(WorldSpec(
        seed=434343, hosts=("victim", "neighbor", "server", "attacker"),
        links=(
            LinkSpec("victim", "pxgw", IMTU, 10e9, 5e-5, roles=("vic_out", "vic_in")),
            LinkSpec("neighbor", "pxgw", IMTU, 10e9, 5e-5, roles=("nbr_out", "nbr_in")),
            LinkSpec("pxgw", "mid", EMTU, 100e6, 2e-4, roles=("ext_out", "ext_in")),
            LinkSpec("mid", "server", BOTTLENECK_MTU, 100e6, 2e-4,
                     roles=("far_out", "far_in")),
            LinkSpec("mid", "attacker", EMTU, 100e6, 1e-4, roles=("atk_in", "atk_out")),
        ),
        config=config, routers=("mid",), inside=("victim", "neighbor"),
        taps=("ext_out", "ext_in", "far_out", "far_in",
              "vic_out", "vic_in", "nbr_out", "nbr_in"),
    ))
    gateway, nodes = world.gateway, world.nodes
    victim, neighbor, server = nodes["victim"], nodes["neighbor"], nodes["server"]
    # b-network hosts: the gateway may bundle inbound UDP (including an
    # attacker's spray) into caravans, so the victims must open them.
    victim.enable_caravan_stack(IMTU)
    neighbor.enable_caravan_stack(IMTU)

    # The PMTU cache carries the policy: per-flow keying, unsolicited
    # bounds, and raise rejection all live behind it.
    cache = PmtuCache(default_ttl=config.pmtu_cache_ttl, policy=policy)
    gateway.attach_pmtu_cache(cache)
    gateway.enable_resilience()
    obs = gateway.attach_observability(Observability(spans=SpanTracker()))

    # Discovery agents on the victim, all carrying the same policy.
    FPmtudDaemon(server)
    ProbeEchoDaemon(server)
    prober = FPmtudProber(victim, src_port=PROBER_PORT, policy=policy,
                          link_mtu=EMTU, nonce_seed=seed)
    plpmtud = Plpmtud(victim, src_port=PLPMTUD_PORT, probe_timeout=0.15,
                      max_retries=2, policy=policy, nonce_seed=seed)
    classical = ClassicalPmtud(victim, src_port=CLASSICAL_PORT,
                               probe_timeout=0.2, max_retries=3,
                               policy=policy, nonce_seed=seed)
    resilient = ResilientPmtud(victim, cache=cache, prober=prober,
                               plpmtud=plpmtud, fpmtud_timeout=0.3,
                               cache_ttl=None, seed=seed)
    ptb_victim = PtbListener(victim, cache, policy=policy, link_mtu=EMTU)
    ptb_neighbor = PtbListener(neighbor, cache, policy=policy, link_mtu=EMTU)

    observe_pmtud(obs, prober=prober)
    alerts = AlertEngine(adversarial_alert_rules())
    timeline = TelemetryTimeline(world.topo.sim, obs.registry, interval=0.05,
                                 alerts=alerts)
    timeline.start()

    return AttackWorld(
        **vars(world), server=server, log=FaultLog(), policy=policy,
        hardened=hardened, prober=prober, plpmtud=plpmtud, classical=classical,
        resilient=resilient, ptb_victim=ptb_victim, ptb_neighbor=ptb_neighbor,
        obs=obs, alerts=alerts, timeline=timeline,
    )


# ----------------------------------------------------------------------
# Attack scheduling
# ----------------------------------------------------------------------
def _address(world: AttackWorld, role: str) -> int:
    """An AttackFault role's address: its node's first interface."""
    return world.nodes[role].interfaces[0].ip


def _forged_udp(world: AttackWorld, fault: AttackFault, payload: bytes,
                src_port: int) -> None:
    """One spoofed UDP datagram from the attacker (off-path)."""
    packet = build_udp(
        _address(world, fault.spoof), _address(world, fault.target),
        src_port, fault.target_port, payload=payload,
    )
    world.nodes["attacker"].send(packet)


def _fire_forged_report(world: AttackWorld, fault: AttackFault) -> None:
    from ..pmtud.fpmtud import FPMTUD_PORT

    for guess in range(fault.id_base, fault.id_base + fault.id_span):
        _forged_udp(world, fault, _pack_report(guess, [fault.mtu]), FPMTUD_PORT)


def _fire_forged_echo_ack(world: AttackWorld, fault: AttackFault) -> None:
    for guess in range(fault.id_base, fault.id_base + fault.id_span):
        _forged_udp(world, fault, pack_echo_ack(guess), ECHO_PORT)


def _fire_forged_ptb(world: AttackWorld, fault: AttackFault) -> None:
    src_role, src_port, dst_role, dst_port = fault.flow
    quoted = build_tcp(
        _address(world, src_role), _address(world, dst_role), src_port, dst_port,
    ).to_bytes()
    ptb = build_icmp(
        _address(world, fault.spoof), _address(world, fault.target),
        ICMPMessage.frag_needed(fault.mtu, quoted),
    )
    world.nodes["attacker"].send(ptb)


_ATTACK_FIRES = {
    "forged_report": _fire_forged_report,
    "forged_echo_ack": _fire_forged_echo_ack,
    "forged_ptb": _fire_forged_ptb,
}


def apply_attack_faults(plan: FaultPlan, world: AttackWorld) -> None:
    """Schedule a plan's attack faults onto the world.

    Off-path kinds become timed spoofed sends from the attacker host;
    ``lying_daemon`` installs a report-rewriting injector on its link.
    Link faults in the plan are installed as usual.
    """
    sim = world.topo.sim
    for fault in plan.attack_faults:
        if fault.kind == "lying_daemon":
            world.install({fault.link: LyingDaemonInjector(
                fault.mtu, PROBER_PORT, world.log)})
            continue
        fire = _ATTACK_FIRES[fault.kind]
        for burst in range(fault.count):
            sim.schedule_at(fault.at + burst * fault.interval,
                            fire, world, fault)
    world.install(plan.injectors(world.log))


# ----------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------
def _tcp_data_lengths(tap: ChaosTap, src_port: Optional[int] = None,
                      since: float = 0.0) -> List[int]:
    """Total lengths of TCP data segments at one tap from *since* on."""
    lengths: List[int] = []
    for time, kind, summary in tap.events:
        if kind != "rx" or time < since or "tcp" not in summary:
            continue
        anchor = summary.index("tcp")
        if src_port is not None and summary[anchor + 1] != src_port:
            continue
        if summary[anchor + 6] == 0:  # pure ACK
            continue
        lengths.append(summary[3])
    return lengths


def _count_oversized(tap: ChaosTap, limit: int, since: float = 0.0) -> int:
    return sum(1 for length in _tcp_data_lengths(tap, since=since)
               if length > limit)


def _small_ratio(tap: ChaosTap, ceiling: int, since: float = 0.0,
                 src_port: Optional[int] = None) -> float:
    """Fraction of data segments at/below *ceiling*.

    A healthy split stream has only its per-jumbo remainder segments
    down there (~1 in 8); a stream clamped by a poisoned PMTU is
    entirely below the ceiling, so a 0.5 threshold separates them
    with a wide margin on both sides.
    """
    lengths = _tcp_data_lengths(tap, src_port=src_port, since=since)
    if not lengths:
        return 0.0
    return sum(1 for length in lengths if length <= ceiling) / len(lengths)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _probe_workload(world: AttackWorld) -> Tuple[List[int], Dict[str, object]]:
    """Raw F-PMTUD discovery with bounded retries (no cache, no TCP)."""
    results: list = []
    attempts = [0]

    def launch() -> None:
        attempts[0] += 1
        world.prober.probe(world.server.ip, IMTU, results.append,
                           timeout=0.4, on_timeout=on_timeout)

    def on_timeout() -> None:
        if attempts[0] < 5 and not results:
            launch()

    world.topo.sim.schedule_at(1e-4, launch)
    world.topo.run(until=4.0)
    estimates = [result.pmtu for result in results]
    return estimates, {"attempts": attempts[0]}


def _plpmtud_workload(world: AttackWorld) -> Tuple[List[int], Dict[str, object]]:
    """One PLPMTUD binary search toward the server."""
    results: list = []
    world.topo.sim.schedule_at(
        1e-4, world.plpmtud.discover, world.server.ip, EMTU, results.append)
    world.topo.run(until=6.0)
    estimates = [result.pmtu for result in results]
    return estimates, {
        "acks_ignored": world.plpmtud.acks_ignored,
        "probes": results[0].probes_sent if results else 0,
    }


def _classical_workload(world: AttackWorld) -> Tuple[List[int], Dict[str, object]]:
    """One RFC 1191 discovery toward the server."""
    results: list = []
    world.topo.sim.schedule_at(
        1e-4, world.classical.discover, world.server.ip, EMTU, results.append)
    world.topo.run(until=6.0)
    estimates = [r.pmtu for r in results if r.pmtu is not None]
    return estimates, {
        "blackholed": bool(results and results[0].blackholed),
        "ptb_rejections": dict(world.classical.ptb_rejections),
        "icmp_received": results[0].icmp_received if results else 0,
    }


def _start_upload(world: AttackWorld, flow: Tuple[str, int, str, int],
                  size: int, at: float) -> Tuple[TCPConnection, TCPListener]:
    src_role, src_port, _dst_role, dst_port = flow
    listener = TCPListener(world.server, dst_port, mss=EMTU - 40)
    host = world.nodes[src_role]
    # pmtud=False: sizing on the external side is the *gateway's* job
    # (it splits jumbos against its PMTU cache); leaving the host TCP
    # stack's own naive PTB handler on would let a forged PTB shrink
    # send_mss underneath the hardened cache and muddy the differential.
    conn = TCPConnection(host, src_port, world.server.ip, dst_port,
                         mss=IMTU - 40, pmtud=False)
    sim = world.topo.sim
    sim.schedule_at(at, conn.connect)

    def send_when_connected() -> None:
        if listener.connections:
            conn.send_bulk(size)
        else:
            sim.schedule(5e-3, send_when_connected)

    sim.schedule_at(at + 5e-3, send_when_connected)
    return conn, listener


def _upload_notes(world: AttackWorld, outcomes: list,
                  uploads: list) -> Tuple[List[int], Dict[str, object]]:
    estimates = [outcome.pmtu for outcome in outcomes]
    final = world.gateway.pmtu_cache.peek(world.server.ip, world.topo.sim.now)
    notes: Dict[str, object] = {
        "discovery": [outcome.source for outcome in outcomes],
        "cache_final": final.pmtu if final is not None else None,
        "cache": world.gateway.pmtu_cache.summary(),
        "uploaded": sum(
            listener.connections[0].bytes_delivered
            for _, listener in uploads if listener.connections
        ),
    }
    return estimates, notes


def _upload_workload(world: AttackWorld, flows=(VICTIM_FLOW,),
                     size: int = 300_000,
                     horizon: float = 6.0) -> Tuple[List[int], Dict[str, object]]:
    """Cache-backed uploads: discovery populates the gateway's PMTU
    cache, then TCP flows exercise the split-clamp path while the
    attack runs.  Uploads are gated on discovery (the realistic
    ordering: the gateway resolves a path before committing jumbos to
    it), so hardened runs never emit pre-discovery oversize."""
    outcomes: list = []
    uploads: list = []

    def begin(outcome) -> None:
        outcomes.append(outcome)
        start = world.topo.sim.now + 5e-3
        for flow in flows:
            uploads.append(_start_upload(world, flow, size, at=start))

    world.topo.sim.schedule_at(
        1e-3, world.resilient.discover, world.server.ip, IMTU, begin)
    world.topo.run(until=horizon)
    return _upload_notes(world, outcomes, uploads)


def _upload_many_workload(world: AttackWorld) -> Tuple[List[int], Dict[str, object]]:
    """A fan of parallel uploads launched on a *clock*, not on
    discovery: traffic that cannot wait is exactly what turns a starved
    PMTU cache into the miss-spike alert."""
    outcomes: list = []
    world.topo.sim.schedule_at(
        1e-3, world.resilient.discover, world.server.ip, IMTU, outcomes.append)
    uploads = [
        _start_upload(world, ("victim", 42000 + index, "server", 9300 + index),
                      20_000, at=0.4)
        for index in range(14)
    ]
    world.topo.run(until=6.0)
    estimates, notes = _upload_notes(world, outcomes, uploads)
    notes["rejected_reports"] = world.prober.rejected_reports
    return estimates, notes


_WORKLOADS: Dict[str, Callable[[AttackWorld], Tuple[List[int], Dict[str, object]]]] = {
    "probe": _probe_workload,
    "plpmtud": _plpmtud_workload,
    "classical": _classical_workload,
    "upload": _upload_workload,
    "upload-two": lambda world: _upload_workload(
        world, flows=(VICTIM_FLOW, NEIGHBOR_FLOW)),
    "upload-many": _upload_many_workload,
}


# ----------------------------------------------------------------------
# The scenario catalog
# ----------------------------------------------------------------------
def _estimates_outside_band(result_notes: Dict[str, object]) -> bool:
    """Any acted-on estimate outside [576, bottleneck]."""
    return any(not (576 <= estimate <= BOTTLENECK_MTU)
               for estimate in result_notes["estimates"])


def _oversized(result_notes: Dict[str, object]) -> bool:
    return result_notes.get("oversized", 0) >= 1


def _micro(result_notes: Dict[str, object]) -> bool:
    return result_notes.get("micro_ratio", 0.0) >= 0.5


def _victim_clamped(result_notes: Dict[str, object]) -> bool:
    return result_notes.get("victim_small_ratio", 0.0) >= 0.5


def _wildcard_poisoned(result_notes: Dict[str, object]) -> bool:
    final = result_notes.get("cache_final")
    return final is not None and final <= 700


def _cache_inflated(result_notes: Dict[str, object]) -> bool:
    final = result_notes.get("cache_final")
    return _estimates_outside_band(result_notes) or (
        final is not None and final > BOTTLENECK_MTU)


@dataclass(frozen=True)
class AttackScenario:
    """One named adversarial scenario: plan + workload + harm predicate."""

    name: str
    workload: str
    plan_factory: Callable[[], FaultPlan]
    compromise: Callable[[Dict[str, object]], bool]
    description: str = ""


def _report_spray(mtu: int, count: int = 4) -> FaultPlan:
    return FaultPlan(attack_faults=[AttackFault(
        kind="forged_report", at=2e-4, count=count, interval=3e-4,
        mtu=mtu, id_base=1, id_span=8, target="victim", spoof="server",
        target_port=PROBER_PORT,
    )])


ATTACK_SCENARIOS: Dict[str, AttackScenario] = {}


def _scenario(name: str, workload: str, plan_factory, compromise,
              description: str) -> None:
    ATTACK_SCENARIOS[name] = AttackScenario(
        name=name, workload=workload, plan_factory=plan_factory,
        compromise=compromise, description=description)


_scenario(
    "forged-report-raise", "probe",
    lambda: _report_spray(1496),
    _estimates_outside_band,
    "Off-path spoofed FPMR claiming a plausible 1496 B fragment: an "
    "unhardened sequential-id prober accepts the raise past the 1280 B "
    "bottleneck; nonces make the spray miss.",
)
_scenario(
    "forged-report-absurd", "probe",
    lambda: _report_spray(8996),
    _estimates_outside_band,
    "Spoofed FPMR claiming a jumbo fragment that no external link could "
    "carry; bounds clamp acceptance to [576, link MTU].",
)
_scenario(
    "forged-report-tiny", "probe",
    lambda: _report_spray(296),
    _estimates_outside_band,
    "Spoofed FPMR claiming 296 B fragments — the throughput-collapse "
    "poison; below the 576 B plausibility floor.",
)
_scenario(
    "lying-daemon-inflate", "upload",
    lambda: FaultPlan(attack_faults=[AttackFault(
        kind="lying_daemon", link="far_in", mtu=8996)]),
    lambda notes: _oversized(notes) or _estimates_outside_band(notes),
    "An on-path daemon rewrites genuine reports to claim jumbo "
    "fragments (nonces cannot help — the id is genuine).  Unhardened, "
    "the gateway splits oversized and blackholes; hardened, bounds "
    "reject every lie and the chain falls through to PLPMTUD.",
)
_scenario(
    "lying-daemon-tiny", "probe",
    lambda: FaultPlan(attack_faults=[AttackFault(
        kind="lying_daemon", link="far_in", mtu=296)]),
    _estimates_outside_band,
    "The same on-path liar claiming 296 B fragments; the plausibility "
    "floor rejects it and the probe times out into retry.",
)
_scenario(
    "forged-echo-ack", "plpmtud",
    lambda: FaultPlan(attack_faults=[AttackFault(
        kind="forged_echo_ack", at=5e-3, count=60, interval=1e-2,
        id_base=1, id_span=16, target="victim", spoof="server",
        target_port=PLPMTUD_PORT,
    )]),
    _estimates_outside_band,
    "Spoofed PLPMTUD acks confirm probes the path actually swallowed "
    "(RFC 4821 inflation): a sequential-id searcher converges above "
    "the bottleneck; nonce ids make every forged ack miss.",
)
_scenario(
    "classical-ptb-collapse", "classical",
    lambda: FaultPlan(attack_faults=[AttackFault(
        kind="forged_ptb", at=2e-4, count=4, interval=2e-4, mtu=296,
        flow=("victim", CLASSICAL_PORT, "server", ECHO_PORT),
        target="victim", spoof="mid",
    )]),
    _estimates_outside_band,
    "Forged ICMP frag-needed with a 296 B hint collapses classical "
    "PMTUD's estimate below the plausibility floor; hardened validation "
    "rejects it and the genuine 1280 B hint wins.",
)
_scenario(
    "forged-ptb-cache-tiny", "upload",
    lambda: FaultPlan(attack_faults=[AttackFault(
        kind="forged_ptb", at=0.012, count=60, interval=5e-3, mtu=296,
        flow=VICTIM_FLOW, target="victim", spoof="mid",
    )]),
    _micro,
    "Forged PTB poisons the gateway's PMTU cache mid-upload with a "
    "296 B value: unhardened splits collapse into micro-segments; the "
    "plausibility floor drops the poison.",
)
_scenario(
    "forged-ptb-cache-raise", "upload",
    lambda: FaultPlan(attack_faults=[AttackFault(
        kind="forged_ptb", at=0.012, count=60, interval=5e-3, mtu=EMTU,
        flow=VICTIM_FLOW, target="victim", spoof="mid",
    )]),
    _oversized,
    "Forged PTB *raises* the cached PMTU to the full link MTU over the "
    "probe-learned bottleneck value: unhardened splits oversize and "
    "blackhole at the bottleneck; reject_raises keeps the probe-trust "
    "entry authoritative.",
)
_scenario(
    "cache-poison-cross-flow", "upload-two",
    lambda: FaultPlan(attack_faults=[AttackFault(
        kind="forged_ptb", at=0.012, count=60, interval=5e-3, mtu=800,
        flow=NEIGHBOR_FLOW, target="neighbor", spoof="mid",
    )]),
    _victim_clamped,
    "A plausible lowering PTB aimed at the *neighbour's* flow behind "
    "the shared gateway: with a per-destination cache the victim's "
    "flow inherits the 800 B clamp; per-flow keying isolates the "
    "poison to the flow it named.",
)
_scenario(
    "report-flood-detect", "upload-many",
    lambda: FaultPlan(
        link_faults=[Fault(
            action="drop", link="far_in",
            match=Match(protocol=IPProto.UDP, dst_port=PROBER_PORT),
            nth=1, count=20,
        )],
        attack_faults=[AttackFault(
            kind="forged_report", at=5e-3, count=30, interval=1e-2,
            mtu=1496, id_base=1, id_span=8, target="victim",
            spoof="server", target_port=PROBER_PORT,
        )],
    ),
    _cache_inflated,
    "Genuine reports are suppressed while forged ones flood in: the "
    "unhardened prober converges on the forgery; the hardened prober "
    "rejects everything, the starved cache spikes its miss rate, and "
    "the pmtu-cache-miss-spike + pmtud-rejected-reports alerts FIRE — "
    "the attack is detected, not just survived.",
)
_scenario(
    "ptb-flood-ratelimit", "upload",
    lambda: FaultPlan(attack_faults=[
        AttackFault(
            kind="forged_ptb", at=0.012 + step * 0.012, count=6,
            interval=2e-3, mtu=1400 - 80 * step,
            flow=VICTIM_FLOW, target="victim", spoof="mid",
        )
        for step in range(10)
    ]),
    _wildcard_poisoned,
    "A descending flood of individually-plausible lowering PTBs walks "
    "the per-destination PMTU down to 680 B.  Lowering is fail-safe by "
    "design, so some clamp lands even hardened — but the token bucket "
    "caps acceptances to a handful and per-flow keying confines them "
    "to the named flow, leaving the shared wildcard entry intact.",
)
_scenario(
    "benign-control", "upload",
    lambda: FaultPlan(),
    lambda notes: (_oversized(notes) or _micro(notes)
                   or _estimates_outside_band(notes)),
    "No attack at all: both stacks must discover, cache, clamp, and "
    "upload identically — and no alert beyond the stock rules may fire.",
)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def build_attack_plan(name: str) -> FaultPlan:
    """The (deterministic) fault plan for one named attack scenario."""
    if name not in ATTACK_SCENARIOS:
        raise ValueError(
            f"unknown attack scenario {name!r} (have {sorted(ATTACK_SCENARIOS)})")
    return ATTACK_SCENARIOS[name].plan_factory()


def run_attack_scenario(name: str, seed: int = 0,
                        hardened: bool = True) -> AttackResult:
    """Run one adversarial scenario end to end.

    Deterministic: (name, seed, hardened) fully determines the digest.
    """
    scenario = ATTACK_SCENARIOS.get(name)
    if scenario is None:
        raise ValueError(
            f"unknown attack scenario {name!r} (have {sorted(ATTACK_SCENARIOS)})")
    plan = scenario.plan_factory()
    world = build_attack_world(seed, hardened)
    apply_attack_faults(plan, world)

    estimates, notes = _WORKLOADS[scenario.workload](world)
    notes["estimates"] = estimates
    notes["prober_rejections"] = dict(world.prober.rejections)
    notes["ptb_victim"] = world.ptb_victim.summary()
    notes["ptb_neighbor"] = world.ptb_neighbor.summary()
    # Packet-level harm, measured on the external egress from the
    # first attack instant onward (0 = whole run for on-path liars).
    since = min((fault.at for fault in plan.attack_faults), default=0.0)
    egress = world.taps["ext_out"]
    notes["attack_start"] = since
    notes["oversized"] = _count_oversized(egress, BOTTLENECK_MTU, since=since)
    notes["micro_ratio"] = round(_small_ratio(egress, 360, since=since), 4)
    notes["victim_small_ratio"] = round(
        _small_ratio(egress, 840, since=since, src_port=VICTIM_FLOW[1]), 4)

    # The sanity oracle runs only over *accepted* estimates: a hardened
    # stack must never have acted on an implausible value.
    oracle = InvariantOracle()
    oracle.check_pmtu_sanity(estimates, BOTTLENECK_MTU, EMTU)
    violations = list(oracle.violations) if hardened else []
    if not hardened:
        # The unhardened run *expects* sanity violations under attack;
        # they are the compromise evidence, not a test failure.
        notes["sanity_violations"] = list(oracle.violations)

    return AttackResult(
        name=name,
        seed=seed,
        hardened=hardened,
        compromised=scenario.compromise(notes),
        violations=violations,
        digest=trace_digest(world.taps.values()),
        estimates=estimates,
        notes=notes,
        alerts={"states": world.alerts.states(),
                "fired": sorted({t["rule"] for t in world.alerts.firings()})},
    )


def run_differential(name: str, seed: int = 0) -> Tuple[AttackResult, AttackResult]:
    """Run one scenario both ways: (hardened, unhardened)."""
    return (run_attack_scenario(name, seed, hardened=True),
            run_attack_scenario(name, seed, hardened=False))


def attack_corpus() -> List[Tuple[str, int]]:
    """The standard (scenario, seed) matrix the adversarial suite runs."""
    return [(name, 7) for name in sorted(ATTACK_SCENARIOS)]
