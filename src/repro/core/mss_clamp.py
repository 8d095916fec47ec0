"""MSS negotiation intervention (§4.1).

The MSS of a TCP connection is fixed at handshake by the endpoints, so
without intervention an inside sender never emits segments larger than
the *outside* peer's (eMTU-derived) MSS, and the b-network's iMTU goes
unused on the TX path.  PXGW rewrites the MSS option on SYN/SYN-ACK
packets as they cross the border:

* heading **into** the b-network, the option is raised to the iMTU's
  MSS — the gateway promises to merge/split on the endpoint's behalf;
* heading **out**, it is capped at the eMTU's MSS so the external peer
  never sends segments the external path cannot carry.
"""

from __future__ import annotations

from ..packet import Packet
from .config import Bound, GatewayConfig

__all__ = ["MssClamp"]


class MssClamp:
    """Rewrites TCP MSS options on handshake packets crossing the border."""

    def __init__(self, config: GatewayConfig):
        self.config = config
        self.raised = 0
        self.capped = 0

    @property
    def inside_mss(self) -> int:
        return self.config.imtu - 40

    @property
    def outside_mss(self) -> int:
        return self.config.emtu - 40

    def process(self, packet: Packet, bound: str, allow_raise: bool = True) -> bool:
        """Rewrite the MSS option in place if warranted.

        Returns True when a rewrite happened.  Non-SYN packets and
        packets without an MSS option are untouched.  With
        ``allow_raise=False`` (a degraded gateway that will not merge)
        the inbound raise is skipped; the outbound cap is always
        applied — it is a correctness bound, not an optimization.
        """
        if not packet.is_tcp or not packet.tcp.syn:
            return False
        current = packet.tcp.mss_option
        if current is None:
            return False
        if bound == Bound.INBOUND:
            if not allow_raise:
                return False
            target = self.inside_mss
            if current < target:
                # own_l4: the SYN may share its header with an upstream
                # fork; materialize before rewriting in place.
                packet.own_l4().replace_mss(target)
                packet.annotate("mss_raised_from", current)
                self.raised += 1
                return True
            return False
        target = self.outside_mss
        if current > target:
            packet.own_l4().replace_mss(target)
            packet.annotate("mss_capped_from", current)
            self.capped += 1
            return True
        return False
