"""Packetization-layer PMTUD (RFC 4821), Scamper-style.

PLPMTUD avoids ICMP by probing with DF data packets and treating the
*absence of acknowledgment* as evidence the probe exceeded the PMTU.
That inference is inherently slow: every size that fails costs the full
probe timeout (times the retry count, since a single loss might be
congestion), and the binary search needs several sizes to converge.
This is the multi-RTT behaviour F-PMTUD's one-round-trip design is
measured against in §5.3.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional

from ..net.host import Host
from ..packet import Packet
from .echo import ECHO_PORT, pack_echo_probe, parse_echo_ack
from .hardening import HardeningPolicy

__all__ = ["Plpmtud", "PlpmtudResult", "PLPMTUD_PORT"]

#: RFC 4821 recommends starting from a size assumed safe everywhere.
BASE_PMTU = 1280
MIN_PMTU = 576
#: The UDP source port PLPMTUD probes leave from.
PLPMTUD_PORT = 54000
#: Timeouts of one size before it counts as too big (one may be loss).
MAX_RETRIES = 2
#: The search stops once the bracket is narrower than this many bytes.
GRANULARITY = 8


@dataclass
class PlpmtudResult:
    """Outcome of a PLPMTUD search."""

    pmtu: int
    elapsed: float
    probes_sent: int
    timeouts: int
    sizes_probed: List[int]


class Plpmtud:
    """Binary-search PLPMTUD toward an echo daemon."""

    def __init__(
        self,
        host: Host,
        probe_timeout: float = 2.0,
        policy: Optional[HardeningPolicy] = None,
        nonce_seed: int = 0,
    ):
        self.host = host
        self.probe_timeout = probe_timeout
        #: With ``probe_nonces`` on, probe ids are unguessable, so a
        #: spoofed PEAK ack cannot confirm a probe the path actually
        #: swallowed (the inflation attack on RFC 4821's loss inference).
        self.policy = policy if policy is not None else HardeningPolicy.unhardened()
        self._nonce_rng = random.Random(f"plpmtud-nonce:{nonce_seed}")
        self._active: Optional[dict] = None
        self._probe_counter = 0
        #: Acks that matched no outstanding probe id.
        self.acks_ignored = 0
        host.on_udp(PLPMTUD_PORT, self._on_ack)

    def discover(
        self,
        dst: int,
        local_mtu: int,
        on_done: Callable[[PlpmtudResult], None],
    ) -> None:
        """Search for the PMTU toward *dst*, bounded by *local_mtu*."""
        if self._active is not None:
            raise RuntimeError("discovery already in progress")
        self._active = {
            "dst": dst,
            "low": MIN_PMTU,
            "high": local_mtu,
            "candidate": min(BASE_PMTU, local_mtu),
            "on_done": on_done,
            "started_at": self.host.sim.now,
            "probes": 0,
            "timeouts": 0,
            "retries": 0,
            "sizes": [],
            "timer": None,
        }
        self._probe_current()

    # ------------------------------------------------------------------
    def _probe_current(self) -> None:
        state = self._active
        size = state["candidate"]
        if self.policy.probe_nonces:
            probe_id = self._nonce_rng.getrandbits(32)
        else:
            self._probe_counter += 1
            probe_id = self._probe_counter
        state["probe_id"] = probe_id
        state["probes"] += 1
        if not state["sizes"] or state["sizes"][-1] != size:
            state["sizes"].append(size)
        payload = pack_echo_probe(probe_id, size)
        self.host.send_udp(state["dst"], PLPMTUD_PORT, ECHO_PORT, payload,
                           dont_fragment=True)
        if state["timer"] is not None:
            state["timer"].cancel()
        state["timer"] = self.host.sim.schedule(self.probe_timeout, self._on_timeout)

    def _on_ack(self, packet: Packet, host: Host) -> None:
        state = self._active
        if state is None or parse_echo_ack(packet.payload) != state["probe_id"]:
            if state is not None and parse_echo_ack(packet.payload) is not None:
                self.acks_ignored += 1
            return
        state["timer"].cancel()
        state["retries"] = 0
        state["low"] = state["candidate"]
        self._advance()

    def _on_timeout(self) -> None:
        state = self._active
        if state is None:
            return
        state["retries"] += 1
        if state["retries"] < MAX_RETRIES:
            # Could be congestion loss: retry the same size first.
            self._probe_current()
            return
        state["timeouts"] += 1
        state["retries"] = 0
        state["high"] = state["candidate"] - 1
        self._advance()

    def _advance(self) -> None:
        state = self._active
        if state["high"] - state["low"] < GRANULARITY:
            self._finish()
            return
        if state["candidate"] == state["low"] and state["candidate"] < state["high"]:
            # Last probe succeeded: try the upper bound directly first
            # (common case: the whole path supports the local MTU).
            if state["low"] == min(BASE_PMTU, state["high"]) and state["probes"] <= MAX_RETRIES:
                state["candidate"] = state["high"]
                self._probe_current()
                return
        state["candidate"] = (state["low"] + state["high"] + 1) // 2
        self._probe_current()

    def _finish(self) -> None:
        state = self._active
        self._active = None
        result = PlpmtudResult(
            pmtu=state["low"],
            elapsed=self.host.sim.now - state["started_at"],
            probes_sent=state["probes"],
            timeouts=state["timeouts"],
            sizes_probed=state["sizes"],
        )
        state["on_done"](result)
