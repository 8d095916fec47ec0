"""Classical path MTU discovery (RFC 1191): DF probes + ICMP feedback.

The sender probes with DF set at its local MTU; routers that cannot
forward reply with ICMP 'fragmentation needed' carrying the next-hop
MTU, and the sender retries at that size.  The method's Achilles heel
is its total dependence on ICMP delivery: behind a blackhole router,
oversized probes vanish silently and discovery stalls until timeout —
the failure mode measured at ~49 % of Internet paths by 2018.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import Callable, List, Optional

from ..net.host import Host
from ..packet import ICMPMessage, IPv4Header, Packet
from .echo import ECHO_PORT, pack_echo_probe, parse_echo_ack
from .hardening import MIN_PLAUSIBLE_PMTU, HardeningPolicy, ReportRateLimiter

__all__ = ["ClassicalPmtud", "ClassicalResult", "PLATEAU_TABLE", "CLASSICAL_PORT"]

#: The UDP source port classical probes leave from.
CLASSICAL_PORT = 53000
#: Silent probe timeouts in a row before the path is declared a blackhole.
MAX_RETRIES = 3

#: RFC 1191 §7.1 plateau table, used when the ICMP message carries no
#: next-hop MTU (old routers set it to zero).
PLATEAU_TABLE = [65535, 32000, 17914, 9000, 8166, 4352, 2002, 1492, 1006, 576, 296, 68]


@dataclass
class ClassicalResult:
    """Outcome of a classical PMTUD run."""

    pmtu: Optional[int]  # None when discovery failed (blackhole)
    elapsed: float
    probes_sent: int
    icmp_received: int
    blackholed: bool


class ClassicalPmtud:
    """One RFC 1191 discovery toward a destination running an echo daemon."""

    def __init__(
        self,
        host: Host,
        probe_timeout: float = 2.0,
        policy: Optional[HardeningPolicy] = None,
        nonce_seed: int = 0,
    ):
        self.host = host
        self.probe_timeout = probe_timeout
        #: ICMP is the attack surface here: with hardening on, a PTB
        #: must quote *our* 4-tuple, carry a plausible lowering hint,
        #: and pass a token-bucket rate limit before it moves the
        #: estimate (off-path RFC 5927-style validation).
        self.policy = policy if policy is not None else HardeningPolicy.unhardened()
        self._nonce_rng = random.Random(f"classical-nonce:{nonce_seed}")
        self._limiter = ReportRateLimiter() if self.policy.rate_limit_reports else None
        self._active: Optional[dict] = None
        self._probe_counter = 0
        #: PTBs dropped by validation, by reason.
        self.ptb_rejected = 0
        self.ptb_rejections: dict = {}
        host.on_udp(CLASSICAL_PORT, self._on_ack)
        host.on_icmp(self._on_icmp)

    def discover(
        self,
        dst: int,
        initial_mtu: int,
        on_done: Callable[[ClassicalResult], None],
    ) -> None:
        """Start discovery toward *dst* from *initial_mtu*."""
        if self._active is not None:
            raise RuntimeError("discovery already in progress")
        self._active = {
            "dst": dst,
            "estimate": initial_mtu,
            "on_done": on_done,
            "started_at": self.host.sim.now,
            "probes": 0,
            "icmp": 0,
            "retries": 0,
            "timer": None,
        }
        self._send_probe()

    # ------------------------------------------------------------------
    def _send_probe(self) -> None:
        state = self._active
        if self.policy.probe_nonces:
            probe_id = self._nonce_rng.getrandbits(32)
        else:
            self._probe_counter += 1
            probe_id = self._probe_counter
        state["probe_id"] = probe_id
        state["probes"] += 1
        payload = pack_echo_probe(probe_id, state["estimate"])
        self.host.send_udp(state["dst"], CLASSICAL_PORT, ECHO_PORT, payload,
                           dont_fragment=True)
        if state["timer"] is not None:
            state["timer"].cancel()
        state["timer"] = self.host.sim.schedule(self.probe_timeout, self._on_timeout)

    def _on_ack(self, packet: Packet, host: Host) -> None:
        state = self._active
        if state is None:
            return
        if parse_echo_ack(packet.payload) != state["probe_id"]:
            return
        state["timer"].cancel()
        self._finish(pmtu=state["estimate"], blackholed=False)

    def _reject_ptb(self, reason: str) -> None:
        self.ptb_rejected += 1
        self.ptb_rejections[reason] = self.ptb_rejections.get(reason, 0) + 1

    def _on_icmp(self, packet: Packet, message: ICMPMessage) -> None:
        state = self._active
        if state is None or not message.is_frag_needed:
            return
        try:
            inner = IPv4Header.unpack(message.payload, verify=False)
        except ValueError:
            return
        if inner.dst != state["dst"]:
            return
        if self.policy.validate_inner:
            # The quoted packet must be one we could have sent: our
            # address, our probe source port.  An off-path forger has
            # to guess the port to get this far.
            if inner.src != self.host.ip:
                self._reject_ptb("inner-src")
                return
            if len(message.payload) >= 24:
                quoted_sport = struct.unpack_from("!H", message.payload, 20)[0]
                if quoted_sport != CLASSICAL_PORT:
                    self._reject_ptb("inner-port")
                    return
        if self._limiter is not None and not self._limiter.allow(self.host.sim.now):
            self._reject_ptb("rate-limited")
            return
        hinted = message.next_hop_mtu
        if self.policy.pmtu_bounds and hinted and not (
            MIN_PLAUSIBLE_PMTU <= hinted < state["estimate"]
        ):
            # Absurdly small, or a "raise" that contradicts the probe
            # we just saw die: hostile either way.
            self._reject_ptb("bounds")
            return
        if self.policy.pmtu_bounds and not hinted:
            # A hintless PTB would force a plateau drop — a forged one
            # walks the estimate down the whole table.  Treat silence
            # as untrustworthy and let the probe timeout path decide.
            self._reject_ptb("no-hint")
            return
        state["icmp"] += 1
        if hinted and hinted < state["estimate"]:
            state["estimate"] = hinted
        else:
            # No hint: drop to the next RFC 1191 plateau.
            state["estimate"] = next(
                (p for p in PLATEAU_TABLE if p < state["estimate"]), 68
            )
        state["retries"] = 0
        self._send_probe()

    def _on_timeout(self) -> None:
        state = self._active
        if state is None:
            return
        state["retries"] += 1
        if state["retries"] >= MAX_RETRIES:
            # Silence: no ICMP, no ack — the blackhole case.
            self._finish(pmtu=None, blackholed=True)
            return
        self._send_probe()

    def _finish(self, pmtu: Optional[int], blackholed: bool) -> None:
        state = self._active
        self._active = None
        result = ClassicalResult(
            pmtu=pmtu,
            elapsed=self.host.sim.now - state["started_at"],
            probes_sent=state["probes"],
            icmp_received=state["icmp"],
            blackholed=blackholed,
        )
        state["on_done"](result)
