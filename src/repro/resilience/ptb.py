"""Feeding ICMP fragmentation-needed hints into the PMTU clamp cache.

The PXGW splits outbound jumbos on behalf of its b-network hosts, so
when a host behind it receives an ICMP PTB ("fragmentation needed and
DF set") for one of its flows, the actionable consumer is the
*gateway's* clamp cache: the next outbound split toward that
destination must honour the narrower hop.  :class:`PtbListener` is
that bridge — it subscribes to a host's ICMP deliveries and writes
accepted hints into a :class:`~repro.resilience.pmtu_cache.PmtuCache`
with ``trust="icmp"`` provenance and the quoted inner 4-tuple as the
flow key.

Unauthenticated ICMP is the classic PMTUD attack surface, so every
hint runs the :class:`~repro.pmtud.hardening.HardeningPolicy` gauntlet
before it touches the cache:

* ``validate_inner`` — the quoted packet must name the listening
  host as its source (an off-path forger must guess the full tuple);
* ``pmtu_bounds`` — the hint must sit in ``[576, link_mtu]``;
* ``rate_limit_reports`` — acceptance is token-bucketed, bounding
  cache churn under a PTB flood;
* ``reject_raises`` / ``per_flow_cache`` — enforced by the cache
  itself at :meth:`~repro.resilience.pmtu_cache.PmtuCache.learn`.

Every rejection is counted by reason; the observability layer exports
the counters so an absorbed attack still shows up on the timeline.
"""

from __future__ import annotations

import struct
from typing import Dict, Optional

from ..packet import ICMPMessage, IPv4Header, Packet
from ..pmtud.hardening import MIN_PLAUSIBLE_PMTU, HardeningPolicy, ReportRateLimiter
from .pmtu_cache import PmtuCache

__all__ = ["PtbListener"]


class PtbListener:
    """Consumes PTB messages delivered to *host* into *cache*."""

    def __init__(
        self,
        host,
        cache: PmtuCache,
        policy: Optional[HardeningPolicy] = None,
        link_mtu: Optional[int] = None,
    ):
        self.host = host
        self.cache = cache
        self.policy = policy if policy is not None else HardeningPolicy.unhardened()
        self.link_mtu = link_mtu
        self._limiter = ReportRateLimiter() if self.policy.rate_limit_reports else None
        self.ptb_received = 0
        self.ptb_accepted = 0
        self.ptb_rejected = 0
        self.rejections: Dict[str, int] = {}
        host.on_icmp(self._on_icmp)

    # ------------------------------------------------------------------
    def _reject(self, reason: str) -> None:
        self.ptb_rejected += 1
        self.rejections[reason] = self.rejections.get(reason, 0) + 1

    def _on_icmp(self, packet: Packet, message: ICMPMessage) -> None:
        if not message.is_frag_needed:
            return
        try:
            inner = IPv4Header.unpack(message.payload, verify=False)
        except ValueError:
            return
        self.ptb_received += 1
        flow = None
        if len(message.payload) >= 24:
            sport, dport = struct.unpack_from("!HH", message.payload, 20)
            flow = (inner.protocol, inner.src, sport, inner.dst, dport)
        if self.policy.validate_inner and inner.src != self.host.ip:
            self._reject("inner-src")
            return
        if self._limiter is not None and not self._limiter.allow(self.host.sim.now):
            self._reject("rate-limited")
            return
        hinted = message.next_hop_mtu
        if not hinted or hinted < 68:
            self._reject("no-hint")
            return
        if self.policy.pmtu_bounds:
            ceiling = self.link_mtu
            if hinted < MIN_PLAUSIBLE_PMTU or (
                ceiling is not None and hinted > ceiling
            ):
                self._reject("bounds")
                return
        stored = self.cache.learn(
            inner.dst, hinted, self.host.sim.now, source="ptb", flow=flow, trust="icmp",
        )
        if stored is None:
            # The cache's trust guard refused it (a raise over a live
            # probe-learned entry).
            self._reject("raise")
            return
        self.ptb_accepted += 1

    def summary(self) -> Dict[str, object]:
        """Counters for the resilience report."""
        return {
            "received": self.ptb_received,
            "accepted": self.ptb_accepted,
            "rejected": self.ptb_rejected,
            "rejections": dict(sorted(self.rejections.items())),
        }
