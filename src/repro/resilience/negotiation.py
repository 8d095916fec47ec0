"""Caravan capability negotiation with a per-peer negative cache.

PX-caravan requires a modified receiver stack (§4.1) — an un-upgraded
host that receives a caravan sees one big garbled datagram instead of
its originals.  During incremental deployment most receivers are *not*
upgraded, so the gateway must know, per destination, whether bundling
is safe.  The protocol is a one-RTT query:

* the gateway sends a CAP-QUERY (UDP, :data:`CARAVAN_CAP_PORT`) toward
  the destination the first time it would bundle for it;
* a caravan-aware stack (one that called
  :meth:`repro.net.Host.enable_caravan_stack`) answers with a CAP-ACK
  carrying its iMTU; an un-upgraded stack has no listener and stays
  silent;
* silence after a backoff-spaced retry budget lands the peer in the
  **negative cache**: datagrams toward it pass through as plain UDP.
  Negative entries carry a TTL so a host upgraded mid-deployment is
  re-discovered, while positive entries expire too (a reinstalled host
  may have *lost* the capability).

While a peer's capability is unknown (query in flight) the gateway
fails safe: plain datagrams.  Losing the optimization for one RTT is
free; garbling a datagram stream is not.

Wire format::

    query:  "PXCQ" + probe_id u32
    ack:    "PXCA" + probe_id u32 + imtu u16
"""

from __future__ import annotations

import random
import struct
from typing import Dict, Optional, Tuple

from ..packet import Packet, build_udp
from .retry import BackoffPolicy

__all__ = [
    "CARAVAN_CAP_PORT",
    "CaravanNegotiator",
    "pack_cap_query",
    "parse_cap_query",
    "pack_cap_ack",
    "parse_cap_ack",
]

#: Well-known UDP port of the capability responder.
CARAVAN_CAP_PORT = 7838

_QUERY_MAGIC = b"PXCQ"
_ACK_MAGIC = b"PXCA"


def pack_cap_query(probe_id: int) -> bytes:
    return _QUERY_MAGIC + struct.pack("!I", probe_id)


def parse_cap_query(payload: bytes) -> Optional[int]:
    if len(payload) < 8 or payload[:4] != _QUERY_MAGIC:
        return None
    return struct.unpack_from("!I", payload, 4)[0]


def pack_cap_ack(probe_id: int, imtu: int) -> bytes:
    return _ACK_MAGIC + struct.pack("!IH", probe_id, imtu)


def parse_cap_ack(payload: bytes) -> "Optional[Tuple[int, int]]":
    if len(payload) < 10 or payload[:4] != _ACK_MAGIC:
        return None
    probe_id, imtu = struct.unpack_from("!IH", payload, 4)
    return probe_id, imtu


class CaravanNegotiator:
    """Per-peer caravan capability tracking for one gateway.

    Attach via :meth:`repro.core.PXGateway.enable_resilience` (which
    registers the ACK listener and installs :meth:`allow_caravan` as
    the worker's caravan gate), or wire manually for tests.
    """

    def __init__(
        self,
        gateway,
        positive_ttl: float = 60.0,
        negative_ttl: float = 5.0,
        query_timeout: float = 0.25,
        backoff: Optional[BackoffPolicy] = None,
    ):
        if positive_ttl <= 0 or negative_ttl <= 0 or query_timeout <= 0:
            raise ValueError("TTLs and timeouts must be positive")
        self.gateway = gateway
        self.sim = gateway.sim
        self.positive_ttl = positive_ttl
        self.negative_ttl = negative_ttl
        self.query_timeout = query_timeout
        self.backoff = backoff or BackoffPolicy(
            initial=0.1, multiplier=2.0, max_delay=1.0, jitter=0.1, max_attempts=3
        )
        self.rng = random.Random(0)
        #: peer ip -> (imtu, absolute expiry).
        self._positive: Dict[int, Tuple[int, float]] = {}
        #: peer ip -> absolute expiry of the negative verdict.
        self._negative: Dict[int, float] = {}
        #: peer ip -> in-flight probe state.
        self._pending: Dict[int, dict] = {}
        self._next_probe_id = 1
        self.queries_sent = 0
        self.acks_received = 0
        self.negative_verdicts = 0
        self.suppressed_bundles = 0
        gateway.register_local_udp(CARAVAN_CAP_PORT, self._on_ack)

    # ------------------------------------------------------------------
    # The gate the worker consults
    # ------------------------------------------------------------------
    def allow_caravan(self, peer: int, now: float) -> bool:
        """May the gateway bundle datagrams toward *peer* right now?

        Unknown or negative-cached peers answer False (plain datagrams
        pass through); an unknown peer additionally kicks off a
        capability query so a later answer can flip the verdict.
        """
        entry = self._positive.get(peer)
        if entry is not None:
            if now < entry[1]:
                return True
            del self._positive[peer]
        expiry = self._negative.get(peer)
        if expiry is not None:
            if now < expiry:
                self.suppressed_bundles += 1
                return False
            del self._negative[peer]
        if peer not in self._pending:
            self._start_probe(peer)
        self.suppressed_bundles += 1
        return False

    def capability(self, peer: int, now: float) -> Optional[bool]:
        """The cached verdict: True/False, or None while unknown."""
        entry = self._positive.get(peer)
        if entry is not None and now < entry[1]:
            return True
        expiry = self._negative.get(peer)
        if expiry is not None and now < expiry:
            return False
        return None

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def _start_probe(self, peer: int) -> None:
        self._pending[peer] = {"attempt": 0, "probe_id": 0, "timer": None}
        self._send_query(peer)

    def _send_query(self, peer: int) -> None:
        state = self._pending[peer]
        route = self.gateway.routes.lookup(peer)
        if route is None:
            # Unroutable peers fail safe immediately.
            self._conclude_negative(peer)
            return
        state["attempt"] += 1
        state["probe_id"] = self._next_probe_id
        self._next_probe_id += 1
        packet = build_udp(
            route.interface.ip,
            peer,
            CARAVAN_CAP_PORT,
            CARAVAN_CAP_PORT,
            payload=pack_cap_query(state["probe_id"]),
        )
        route.interface.send(packet)
        self.queries_sent += 1
        state["timer"] = self.sim.schedule(self.query_timeout, self._on_timeout, peer)

    def _on_timeout(self, peer: int) -> None:
        state = self._pending.get(peer)
        if state is None:
            return
        if self.backoff.exhausted(state["attempt"]):
            self._conclude_negative(peer)
            return
        delay = self.backoff.delay(state["attempt"], self.rng)
        state["timer"] = self.sim.schedule(delay, self._send_query, peer)

    def _conclude_negative(self, peer: int) -> None:
        self._pending.pop(peer, None)
        self._negative[peer] = self.sim.now + self.negative_ttl
        self.negative_verdicts += 1

    def _on_ack(self, packet: Packet, interface) -> None:
        parsed = parse_cap_ack(packet.payload)
        if parsed is None:
            return
        _probe_id, imtu = parsed
        peer = packet.ip.src
        state = self._pending.pop(peer, None)
        if state is not None and state["timer"] is not None:
            state["timer"].cancel()
        self._negative.pop(peer, None)
        self._positive[peer] = (imtu, self.sim.now + self.positive_ttl)
        self.acks_received += 1

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, int]:
        """Counters for the resilience report."""
        return {
            "positive_entries": len(self._positive),
            "negative_entries": len(self._negative),
            "pending_probes": len(self._pending),
            "queries_sent": self.queries_sent,
            "acks_received": self.acks_received,
            "negative_verdicts": self.negative_verdicts,
            "suppressed_bundles": self.suppressed_bundles,
        }


def make_cap_responder(imtu: int):
    """The host-side CAP-QUERY listener (see Host.enable_caravan_stack)."""

    def responder(packet: Packet, host) -> None:
        probe_id = parse_cap_query(packet.payload)
        if probe_id is None:
            return
        host.send_udp(
            packet.ip.src,
            CARAVAN_CAP_PORT,
            packet.udp.src_port,
            pack_cap_ack(probe_id, imtu),
        )

    return responder
