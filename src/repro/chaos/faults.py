"""The FaultPlan DSL: seeded, schedule-driven fault injection.

Netem-style impairment is *probabilistic*: useful for load realism,
useless for pinpointing a failing interleaving.  A :class:`FaultPlan`
is the complement — a fully deterministic schedule of faults ("drop the
3rd inbound TCP data packet", "truncate the 2nd caravan", "stall the
gateway at t=4 ms for 2 ms") that composes with
:class:`repro.sim.netem.Netem` on the same link but is replayable from
a single seed.  Every failure a chaos run finds can be reproduced
exactly and shrunk to a minimal schedule (:mod:`repro.chaos.shrink`).

Three fault families:

* **Link faults** (:class:`Fault`) act on the Nth..Nth+count-1 packets
  matching a :class:`Match` predicate as they cross one link:
  drop / duplicate / reorder / corrupt / truncate / delay.
* **Gateway faults** (:class:`GatewayFault`) hit the PXGW itself at an
  absolute time: merge-context eviction storms, on-NIC memory
  exhaustion (forcing ``hdo_fallbacks``), and worker stalls.
* **Attack faults** (:class:`AttackFault`) model an *adversary* rather
  than an unreliable network: off-path forged F-PMTUD reports, forged
  ICMP packet-too-big, spoofed PLPMTUD acks (all injected from an
  attacker host at absolute times), and a lying on-path report daemon
  (:class:`LyingDaemonInjector` rewriting genuine fragment reports).
  Scheduling them onto a world is done by
  :func:`repro.chaos.attacks.apply_attack_faults`.

Semantics chosen to match real networks:

* ``corrupt`` on TCP is discarded in flight (the receiver's checksum
  would reject it) — deterministic loss the stack must recover from;
  ``corrupt`` on UDP flips a payload byte and delivers it, which the
  application layer (sealed datagrams) must detect;
* ``truncate`` shortens the payload and fixes up the IP/UDP lengths —
  the datagram-boundary violation caravans must never *cause*;
* ``reorder`` holds one packet back long enough for successors to
  overtake it, which forces the merge engines' flush-on-reorder path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..core.caravan import caravan_inner_count
from ..packet import IPProto, Packet

__all__ = [
    "Match",
    "Fault",
    "GatewayFault",
    "AttackFault",
    "FaultPlan",
    "LinkInjector",
    "LyingDaemonInjector",
    "FaultLog",
    "apply_gateway_faults",
    "ATTACK_KINDS",
]

#: Valid link-fault actions.
ACTIONS = ("drop", "duplicate", "reorder", "corrupt", "truncate", "delay")
#: Valid gateway-fault kinds.
GATEWAY_KINDS = ("stall", "eviction_storm", "nic_pressure")
#: Valid attacker-model kinds.
ATTACK_KINDS = ("forged_report", "forged_ptb", "forged_echo_ack", "lying_daemon")


@dataclass(frozen=True)
class Match:
    """A flow predicate over packets crossing a link."""

    protocol: Optional[int] = None  # IPProto.TCP / IPProto.UDP / None=any
    src_port: Optional[int] = None
    dst_port: Optional[int] = None
    #: Only packets carrying at least this much L4 payload (1 excludes
    #: pure ACKs; handshake/control packets stay untouched by default).
    min_payload: int = 0
    #: Match IP fragments too (default: whole packets only).
    fragments: bool = False

    def matches(self, packet: Packet) -> bool:
        if packet.is_fragment:
            return self.fragments
        if self.protocol is not None and packet.ip.protocol != self.protocol:
            return False
        ports: Tuple[Optional[int], Optional[int]] = (None, None)
        if packet.is_tcp:
            ports = (packet.tcp.src_port, packet.tcp.dst_port)
        elif packet.is_udp:
            ports = (packet.udp.src_port, packet.udp.dst_port)
        if self.src_port is not None and ports[0] != self.src_port:
            return False
        if self.dst_port is not None and ports[1] != self.dst_port:
            return False
        if packet.l4_payload_len < self.min_payload:
            return False
        return True


@dataclass(frozen=True)
class Fault:
    """One schedule entry: an action on specific matching packets.

    The fault fires on match indices ``nth .. nth+count-1`` (1-based,
    counted per link over packets satisfying :attr:`match`), so every
    fault is exhausted after ``count`` hits and the run always reaches
    a fault-free steady state.
    """

    action: str
    link: str  # role name of the link this fault attaches to
    match: Match = field(default_factory=Match)
    nth: int = 1
    count: int = 1
    #: Hold-back for reorder/delay; offset between duplicate copies.
    delay: float = 2e-3
    #: Payload bytes to keep when truncating.
    truncate_to: int = 8

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.nth < 1 or self.count < 1:
            raise ValueError("nth and count are 1-based and positive")
        if self.delay < 0:
            raise ValueError("delay must be non-negative")

    def describe(self) -> str:
        span = f"#{self.nth}" if self.count == 1 else f"#{self.nth}-{self.nth + self.count - 1}"
        return f"{self.action}@{self.link}[{span}]"


@dataclass(frozen=True)
class GatewayFault:
    """A gateway-level fault applied at an absolute simulation time."""

    kind: str
    at: float
    duration: float = 2e-3
    #: For ``eviction_storm``: merge contexts allowed during the storm.
    contexts: int = 1
    #: For ``nic_pressure``: on-NIC bytes left during the squeeze.
    nic_memory_bytes: int = 0

    def __post_init__(self):
        if self.kind not in GATEWAY_KINDS:
            raise ValueError(f"unknown gateway fault {self.kind!r}")
        if self.at < 0 or self.duration <= 0:
            raise ValueError("gateway faults need at >= 0 and duration > 0")

    def describe(self) -> str:
        return f"{self.kind}@t={self.at:g}s/{self.duration:g}s"


@dataclass(frozen=True)
class AttackFault:
    """One adversarial action against the PMTUD control plane.

    Kinds (all deterministic; timing and repetition are explicit):

    * ``forged_report`` — off-path spoofed F-PMTUD fragment reports,
      claiming a single fragment of ``mtu`` bytes, sprayed over probe
      ids ``id_base .. id_base+id_span-1`` (guessing a sequential-id
      prober) in ``count`` bursts ``interval`` apart;
    * ``forged_ptb`` — off-path spoofed ICMP fragmentation-needed with
      next-hop MTU ``mtu``, quoting the 4-tuple in :attr:`flow`;
    * ``forged_echo_ack`` — spoofed PLPMTUD/classical probe acks over
      the same guessed id range;
    * ``lying_daemon`` — on-path rewrite of *genuine* fragment reports
      crossing :attr:`link` to claim ``mtu``-byte fragments
      (:class:`LyingDaemonInjector`).

    ``target`` / ``spoof`` are world role names ("victim", "neighbor",
    "server", ...) resolved by :func:`repro.chaos.attacks.apply_attack_faults`;
    keeping roles rather than addresses makes plans world-independent
    and therefore replayable/shrinkable like every other fault.
    """

    kind: str
    at: float = 0.0
    count: int = 1
    interval: float = 1e-3
    #: The MTU/fragment-size lie, in bytes.
    mtu: int = 296
    #: First probe id to guess (sequential-id probers start at 1).
    id_base: int = 1
    #: How many consecutive ids each burst covers.
    id_span: int = 1
    #: For ``lying_daemon``: the link role whose reports are rewritten.
    link: str = ""
    #: For ``forged_ptb``: the quoted flow as role names
    #: (src_role, src_port, dst_role, dst_port).
    flow: Optional[Tuple[str, int, str, int]] = None
    #: Role receiving the forged message.
    target: str = "victim"
    #: Role whose address the forged message claims to come from.
    spoof: str = "server"
    #: Destination port of forged UDP (prober/searcher source port).
    target_port: int = 0

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if self.at < 0 or self.count < 1 or self.interval < 0:
            raise ValueError("attacks need at >= 0, count >= 1, interval >= 0")
        if self.kind == "lying_daemon" and not self.link:
            raise ValueError("lying_daemon attacks need a link role")
        if self.kind == "forged_ptb" and self.flow is None:
            raise ValueError("forged_ptb attacks need a quoted flow")

    def describe(self) -> str:
        times = "" if self.count == 1 else f"x{self.count}"
        where = f"@{self.link}" if self.kind == "lying_daemon" else f"->{self.target}"
        return f"{self.kind}({self.mtu}){where}@t={self.at:g}s{times}"


@dataclass
class FaultLog:
    """What an injector actually did — the oracle's loss/dup budget."""

    entries: List[Tuple[float, str, str]] = field(default_factory=list)
    #: UDP datagrams removed from the world (drops + TCP-style corrupt
    #: discards), counting a caravan as its inner datagrams.
    udp_datagrams_lost: int = 0
    #: Extra UDP datagram copies injected by duplication.
    udp_datagrams_duplicated: int = 0
    #: UDP datagrams delivered with mutated bytes (corrupt/truncate):
    #: each shows up as one missing original plus one unmatched arrival.
    udp_datagrams_mutated: int = 0
    tcp_packets_dropped: int = 0
    faults_fired: int = 0

    def note(self, now: float, action: str, packet: Packet) -> None:
        self.faults_fired += 1
        self.entries.append((now, action, repr(packet)))


class LinkInjector:
    """Deterministic per-link fault applicator (Link.injector protocol).

    Keeps one match counter per fault, so the schedule depends only on
    the packet order the deterministic simulator produces.
    """

    def __init__(self, faults: List[Fault], log: Optional[FaultLog] = None):
        self.faults = list(faults)
        self.log = log if log is not None else FaultLog()
        self._seen = [0] * len(self.faults)

    # ------------------------------------------------------------------
    def apply(self, packet: Packet, now: float) -> List[Tuple[Packet, float]]:
        """Decide the fate of one packet; called by the Link."""
        for index, fault in enumerate(self.faults):
            if not fault.match.matches(packet):
                continue
            self._seen[index] += 1
            position = self._seen[index]
            if position < fault.nth or position >= fault.nth + fault.count:
                continue
            return self._fire(fault, packet, now)
        return [(packet, 0.0)]

    # ------------------------------------------------------------------
    def _fire(self, fault: Fault, packet: Packet, now: float) -> List[Tuple[Packet, float]]:
        log = self.log
        log.note(now, fault.describe(), packet)
        if fault.action == "drop":
            self._account_removed(packet)
            return []
        if fault.action == "duplicate":
            if packet.is_udp:
                log.udp_datagrams_duplicated += caravan_inner_count(packet)
            return [(packet, 0.0), (packet.copy(), fault.delay)]
        if fault.action == "reorder" or fault.action == "delay":
            return [(packet, fault.delay)]
        if fault.action == "corrupt":
            if packet.is_udp and packet.payload:
                mutated = packet.copy()
                flipped = bytearray(mutated.payload)
                flipped[0] ^= 0xFF
                mutated.payload = bytes(flipped)
                mutated.annotate("chaos_corrupted", True)
                log.udp_datagrams_mutated += caravan_inner_count(packet)
                return [(mutated, 0.0)]
            # TCP (or empty payload): the receiver checksum would reject
            # it, so corruption manifests as in-flight loss.
            self._account_removed(packet)
            return []
        if fault.action == "truncate":
            return [(self._truncate(fault, packet), 0.0)]
        raise AssertionError(f"unhandled action {fault.action}")  # pragma: no cover

    def _account_removed(self, packet: Packet) -> None:
        if packet.is_udp:
            self.log.udp_datagrams_lost += caravan_inner_count(packet)
        elif packet.is_tcp:
            self.log.tcp_packets_dropped += 1
        elif packet.is_fragment:
            # Conservatively assume the fragment carried (part of) one
            # datagram; losing any fragment loses the whole datagram.
            self.log.udp_datagrams_lost += 1

    def _truncate(self, fault: Fault, packet: Packet) -> Packet:
        keep = min(fault.truncate_to, len(packet.payload))
        if keep == len(packet.payload):
            return packet
        # Account *before* mutating: the original datagrams vanish.
        if packet.is_udp:
            self.log.udp_datagrams_mutated += caravan_inner_count(packet)
        elif packet.is_fragment:
            self.log.udp_datagrams_lost += 1
        mutated = packet.copy()
        mutated.payload = packet.payload[:keep]
        mutated.annotate("chaos_truncated", True)
        if mutated.is_udp:
            mutated.udp.length = 8 + keep
        mutated.ip.total_length = (
            mutated.ip.header_len + mutated.l4_header_len + keep
        )
        return mutated


class LyingDaemonInjector:
    """An on-path adversary rewriting genuine F-PMTUD reports.

    Unlike the off-path forgers, this model has the real probe id in
    hand (it reads it off the wire), so per-probe nonces cannot help —
    only the prober's plausible-PMTU bounds can.  Every matching
    report's fragment-size list is rewritten to a single ``claim``-byte
    fragment, with the UDP/IP lengths fixed up so the packet stays
    well-formed (same idiom as ``truncate``).
    """

    def __init__(self, claim: int, report_port: int,
                 log: Optional[FaultLog] = None):
        self.claim = claim
        self.report_port = report_port
        self.log = log if log is not None else FaultLog()
        self.rewritten = 0

    def apply(self, packet: Packet, now: float) -> List[Tuple[Packet, float]]:
        from ..pmtud.fpmtud import _pack_report, _parse_report

        if not packet.is_udp or packet.udp.dst_port != self.report_port:
            return [(packet, 0.0)]
        parsed = _parse_report(packet.payload)
        if parsed is None:
            return [(packet, 0.0)]
        probe_id, _sizes = parsed
        mutated = packet.copy()
        mutated.payload = _pack_report(probe_id, [self.claim])
        mutated.udp.length = 8 + len(mutated.payload)
        mutated.ip.total_length = (
            mutated.ip.header_len + mutated.l4_header_len + len(mutated.payload)
        )
        self.rewritten += 1
        self.log.note(now, f"lying_daemon({self.claim})", packet)
        return [(mutated, 0.0)]


@dataclass
class FaultPlan:
    """A complete, replayable fault schedule for one scenario."""

    link_faults: List[Fault] = field(default_factory=list)
    gateway_faults: List[GatewayFault] = field(default_factory=list)
    attack_faults: List[AttackFault] = field(default_factory=list)

    def __len__(self) -> int:
        return (len(self.link_faults) + len(self.gateway_faults)
                + len(self.attack_faults))

    def describe(self) -> str:
        parts = [fault.describe() for fault in self.link_faults]
        parts += [fault.describe() for fault in self.gateway_faults]
        parts += [fault.describe() for fault in self.attack_faults]
        return " + ".join(parts) if parts else "(no faults)"

    def injectors(self, log: Optional[FaultLog] = None) -> "Dict[str, LinkInjector]":
        """Fresh per-link injectors (counters reset), sharing one log."""
        log = log if log is not None else FaultLog()
        by_link: Dict[str, List[Fault]] = {}
        for fault in self.link_faults:
            by_link.setdefault(fault.link, []).append(fault)
        return {link: LinkInjector(faults, log) for link, faults in by_link.items()}

    def without(self, index: int) -> "FaultPlan":
        """A copy with the index-th fault removed (links, then gateway,
        then attacks)."""
        links = list(self.link_faults)
        gateways = list(self.gateway_faults)
        attacks = list(self.attack_faults)
        if index < len(links):
            del links[index]
        elif index < len(links) + len(gateways):
            del gateways[index - len(links)]
        else:
            del attacks[index - len(links) - len(gateways)]
        return replace(self, link_faults=links, gateway_faults=gateways,
                       attack_faults=attacks)

    def subset(self, keep: List[int]) -> "FaultPlan":
        """A copy retaining only the faults at the given indices."""
        merged = (list(self.link_faults) + list(self.gateway_faults)
                  + list(self.attack_faults))
        chosen = [merged[i] for i in sorted(set(keep)) if 0 <= i < len(merged)]
        return FaultPlan(
            link_faults=[f for f in chosen if isinstance(f, Fault)],
            gateway_faults=[f for f in chosen if isinstance(f, GatewayFault)],
            attack_faults=[f for f in chosen if isinstance(f, AttackFault)],
        )


def apply_gateway_faults(plan: FaultPlan, gateway) -> None:
    """Schedule the plan's gateway faults onto *gateway*'s simulator."""
    sim = gateway.sim
    worker = gateway.worker

    def start_eviction_storm(fault: GatewayFault) -> None:
        saved = (worker.merge.max_contexts, worker.caravan_merge.max_contexts)
        worker.merge.max_contexts = fault.contexts
        worker.caravan_merge.max_contexts = fault.contexts

        def restore():
            worker.merge.max_contexts, worker.caravan_merge.max_contexts = saved

        sim.schedule(fault.duration, restore)

    def start_nic_pressure(fault: GatewayFault) -> None:
        saved = worker.nic_memory_bytes
        worker.nic_memory_bytes = fault.nic_memory_bytes

        def restore():
            worker.nic_memory_bytes = saved

        sim.schedule(fault.duration, restore)

    for fault in plan.gateway_faults:
        if fault.kind == "stall":
            sim.schedule_at(fault.at, gateway.stall, fault.duration)
        elif fault.kind == "eviction_storm":
            sim.schedule_at(fault.at, start_eviction_storm, fault)
        elif fault.kind == "nic_pressure":
            sim.schedule_at(fault.at, start_nic_pressure, fault)


# Re-export for Match construction convenience.
TCP = IPProto.TCP
UDP = IPProto.UDP
