"""F-PMTUD: single-round-trip, ICMP-free path MTU discovery (§4.2).

The prober sends one dummy UDP probe sized to the next hop's eMTU with
DF *clear* toward a well-known port on the destination.  Routers along
the path fragment it wherever a link's MTU is smaller; the daemon on
the destination observes the sizes of the fragments that arrive (its
host stack reassembles them anyway) and reports them back in a single
UDP message.  The prober concludes:

* probe arrived whole → PMTU = probe size;
* probe was fragmented → PMTU = size of the largest fragment.

Because fragment payloads are 8-byte aligned, the reported value can
sit up to 7 bytes below the true bottleneck MTU (a 1000 B hop yields
996 B fragments); the reported value is always *usable*, which is what
an endpoint needs.  Total discovery cost: one RTT, no ICMP anywhere.

PXGWs forward probes (and fragments in general) without caravan
merging; see :class:`repro.core.PXGateway`.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..core.gateway import FPMTUD_PORT
from ..net.host import Host
from ..packet import Packet
from .hardening import MIN_PLAUSIBLE_PMTU, HardeningPolicy

__all__ = ["FPmtudDaemon", "FPmtudProber", "FPmtudResult", "FPMTUD_PORT"]

_PROBE_MAGIC = b"FPMP"
_REPORT_MAGIC = b"FPMR"


def _pack_probe(probe_id: int, size: int) -> bytes:
    """A probe payload of exactly *size* - 28 bytes (IP+UDP headers)."""
    payload_len = size - 28
    head = _PROBE_MAGIC + struct.pack("!I", probe_id)
    if payload_len < len(head):
        raise ValueError(f"probe size {size} too small")
    return head + bytes(payload_len - len(head))


def _parse_probe(payload: bytes) -> Optional[int]:
    if len(payload) < 8 or payload[:4] != _PROBE_MAGIC:
        return None
    return struct.unpack_from("!I", payload, 4)[0]


def _pack_report(probe_id: int, sizes: List[int]) -> bytes:
    return (
        _REPORT_MAGIC
        + struct.pack("!IH", probe_id, len(sizes))
        + b"".join(struct.pack("!H", size) for size in sizes)
    )


def _parse_report(payload: bytes) -> "Optional[tuple[int, List[int]]]":
    if len(payload) < 10 or payload[:4] != _REPORT_MAGIC:
        return None
    probe_id, count = struct.unpack_from("!IH", payload, 4)
    sizes = [
        struct.unpack_from("!H", payload, 10 + 2 * index)[0] for index in range(count)
    ]
    return probe_id, sizes


@dataclass
class FPmtudResult:
    """Outcome of one F-PMTUD discovery."""

    pmtu: int
    elapsed: float
    fragment_sizes: List[int]
    probe_size: int

    @property
    def was_fragmented(self) -> bool:
        return len(self.fragment_sizes) > 1


class FPmtudDaemon:
    """The destination-side agent: reports received fragment sizes."""

    def __init__(self, host: Host):
        self.host = host
        self.reports_sent = 0
        host.on_udp(FPMTUD_PORT, self._on_probe)

    def _on_probe(self, packet: Packet, host: Host) -> None:
        probe_id = _parse_probe(packet.payload)
        if probe_id is None:
            return
        # The host's reassembler recorded how the probe arrived; an
        # unfragmented probe registers as a single "fragment".
        sizes = list(host.reassembler.last_fragment_sizes)
        report = _pack_report(probe_id, sizes)
        host.send_udp(packet.ip.src, FPMTUD_PORT, packet.udp.src_port, report)
        self.reports_sent += 1


class FPmtudProber:
    """The sender-side agent: one probe, one report, one RTT.

    With a :class:`HardeningPolicy` attached, probe ids become
    unguessable per-probe nonces (the id field already round-trips
    through the daemon verbatim, so the wire format is unchanged) and
    incoming reports are validated against the plausible-PMTU band
    ``[576, min(probe size, link_mtu)]`` before acceptance.  Rejected
    reports are counted, never acted on, and leave the probe pending
    so the normal timeout/retry path drives recovery.
    """

    def __init__(self, host: Host, src_port: int = 52000, daemon_port: int = FPMTUD_PORT,
                 policy: Optional[HardeningPolicy] = None,
                 link_mtu: Optional[int] = None, nonce_seed: int = 0):
        self.host = host
        self.src_port = src_port
        self.daemon_port = daemon_port
        #: Defenses applied to incoming reports; defaults to the
        #: original trusting behaviour so existing callers see no change.
        self.policy = policy if policy is not None else HardeningPolicy.unhardened()
        #: Plausibility ceiling: no real path through our first hop can
        #: have a PMTU above the link MTU toward it.
        self.link_mtu = link_mtu
        self._nonce_rng = random.Random(f"fpmtud-nonce:{nonce_seed}")
        self._pending: Dict[int, dict] = {}
        self._next_id = 1
        self.probes_sent = 0
        self.reports_received = 0
        self.timeouts = 0
        #: Reports dropped by validation, with a per-reason breakdown
        #: (``unknown-id`` / ``bounds``) in :attr:`rejections`.
        self.rejected_reports = 0
        self.rejections: Dict[str, int] = {"unknown-id": 0, "bounds": 0}
        #: Most recently discovered PMTU (None until a report lands).
        self.last_pmtu: Optional[int] = None
        #: Subscribers told of the probe lifecycle (``on_event``:
        #: ``"pmtud-probe"`` → ``"pmtud-report"`` | ``"pmtud-timeout"``,
        #: and ``"pmtud-report-rejected"``); empty by default.
        self.observers = ()
        host.on_udp(src_port, self._on_report)

    def pending_probes(self) -> int:
        """Probes launched but not yet reported or timed out."""
        return len(self._pending)

    def probe(
        self,
        dst: int,
        probe_size: int,
        on_result: Callable[[FPmtudResult], None],
        timeout: float = 5.0,
        on_timeout: Optional[Callable[[], None]] = None,
    ) -> int:
        """Send one probe of *probe_size* (the next hop's eMTU) to *dst*.

        *on_result* fires when the daemon's report arrives (normally
        after a single RTT).  Returns the probe id.
        """
        probe_id = self._allocate_id()
        payload = _pack_probe(probe_id, probe_size)
        sent_at = self.host.sim.now
        handle = self.host.sim.schedule(timeout, self._on_probe_timeout, probe_id)
        self._pending[probe_id] = {
            "sent_at": sent_at,
            "probe_size": probe_size,
            "on_result": on_result,
            "on_timeout": on_timeout,
            "timer": handle,
        }
        # DF clear: routers are *expected* to fragment the probe.
        self.host.send_udp(dst, self.src_port, self.daemon_port, payload,
                           dont_fragment=False)
        self.probes_sent += 1
        for observer in self.observers:
            observer.on_event(
                self, sent_at, "pmtud-probe",
                probe_id=probe_id, dst=dst, size=probe_size,
            )
        return probe_id

    def _allocate_id(self) -> int:
        """Sequential ids normally; unguessable nonces under hardening."""
        if not self.policy.probe_nonces:
            probe_id = self._next_id
            self._next_id += 1
            return probe_id
        probe_id = self._nonce_rng.getrandbits(32)
        while probe_id == 0 or probe_id in self._pending:
            probe_id = self._nonce_rng.getrandbits(32)
        return probe_id

    def _reject_report(self, reason: str, probe_id: int, pmtu: Optional[int]) -> None:
        self.rejected_reports += 1
        self.rejections[reason] = self.rejections.get(reason, 0) + 1
        for observer in self.observers:
            observer.on_event(self, self.host.sim.now, "pmtud-report-rejected",
                              probe_id=probe_id, reason=reason, pmtu=pmtu)

    def _on_report(self, packet: Packet, host: Host) -> None:
        parsed = _parse_report(packet.payload)
        if parsed is None:
            return
        probe_id, sizes = parsed
        pending = self._pending.get(probe_id)
        if pending is None:
            # Unsolicited (or forged/duplicate) report: with nonce ids
            # an off-path attacker lands here with overwhelming
            # probability.  Count it so the obs layer can alert.
            self._reject_report("unknown-id", probe_id,
                                max(sizes) if sizes else None)
            return
        pmtu = max(sizes) if sizes else pending["probe_size"]
        if self.policy.pmtu_bounds:
            ceiling = pending["probe_size"]
            if self.link_mtu is not None:
                ceiling = min(ceiling, self.link_mtu)
            if not (MIN_PLAUSIBLE_PMTU <= pmtu <= ceiling) or any(
                size > ceiling for size in sizes
            ):
                # Leave the probe pending: the timeout drives a retry,
                # so a lying daemon costs time, not correctness.
                self._reject_report("bounds", probe_id, pmtu)
                return
        del self._pending[probe_id]
        pending["timer"].cancel()
        self.reports_received += 1
        self.last_pmtu = pmtu
        result = FPmtudResult(
            pmtu=pmtu,
            elapsed=self.host.sim.now - pending["sent_at"],
            fragment_sizes=sizes,
            probe_size=pending["probe_size"],
        )
        for observer in self.observers:
            observer.on_event(
                self, self.host.sim.now, "pmtud-report",
                probe_id=probe_id, pmtu=pmtu, fragments=len(sizes),
                elapsed=result.elapsed,
            )
        pending["on_result"](result)

    def _on_probe_timeout(self, probe_id: int) -> None:
        pending = self._pending.pop(probe_id, None)
        if pending is None:
            return
        self.timeouts += 1
        for observer in self.observers:
            observer.on_event(self, self.host.sim.now, "pmtud-timeout", probe_id=probe_id)
        if pending["on_timeout"]:
            pending["on_timeout"]()
