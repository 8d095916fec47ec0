"""IP routers: forwarding, fragmentation, and (optionally suppressed) ICMP.

Two behaviours matter for the paper's arguments:

* When a DF packet exceeds the egress MTU, a well-behaved router sends
  ICMP 'fragmentation needed' back (classical PMTUD's signal).  An
  *ICMP blackhole* router silently drops instead — the widespread
  misconfiguration that motivates F-PMTUD.
* When DF is clear, the router fragments in place; the fragment sizes
  then encode the bottleneck MTU, which is the signal F-PMTUD reads.
"""

from __future__ import annotations

from typing import Optional

from ..packet import FragmentationNeeded, ICMPMessage, Packet, build_icmp, fragment_packet
from ..sim.engine import Simulator
from ..sim.node import Interface, Node
from .routing import Route, RoutingTable

__all__ = ["Router"]


class Router(Node):
    """A store-and-forward IPv4 router."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        icmp_blackhole: bool = False,
        filter_fragments: bool = False,
        icmp_rate_limit: Optional[float] = None,
    ):
        super().__init__(sim, name)
        self.routes = RoutingTable()
        #: Suppress ICMP error generation (misconfiguration / "security").
        self.icmp_blackhole = icmp_blackhole
        #: Drop IP fragments outright (a rarer but real filtering policy;
        #: §5.3 found 15 of 389k paths doing this at the last-hop AS).
        self.filter_fragments = filter_fragments
        #: Maximum ICMP errors per second (routers rate-limit error
        #: generation; classical PMTUD degrades behind aggressive
        #: limits even without a full blackhole).  None = unlimited.
        self.icmp_rate_limit = icmp_rate_limit
        self._last_icmp_at: Optional[float] = None
        self.icmp_suppressed = 0
        self.forwarded = 0
        self.dropped = 0

    def receive(self, packet: Packet, interface: Interface) -> None:
        """Forward an arriving packet toward its destination."""
        if packet.ip.dst in self._if_by_ip:
            self._deliver_local(packet, interface)
            return
        self.forward(packet, arrived_on=interface)

    def forward(
        self,
        packet: Packet,
        arrived_on: Optional[Interface] = None,
        route: Optional[Route] = None,
    ) -> bool:
        """Route *packet* out the proper interface; True if sent.

        *route* is the table's answer for ``packet.ip.dst`` when the
        caller has just looked it up (a gateway needs it to tell the
        crossing direction before it forwards).
        """
        if self.filter_fragments and packet.is_fragment:
            self.dropped += 1
            return False

        ip = packet.ip
        if ip.ttl <= 1:
            self.dropped += 1
            self._send_icmp_error(
                packet,
                ICMPMessage(icmp_type=11, code=0, payload=packet.to_bytes()[:28]),
            )
            return False

        if route is None:
            route = self.routes.lookup(ip.dst)
            if route is None:
                self.dropped += 1
                return False

        egress = route.interface
        # Forwarding only touches the IP header (TTL here, total_length
        # during any later serialization), so a full structural copy is
        # wasted work — share the L4 header copy-on-write instead.
        packet = packet.fork()
        packet.ip.ttl -= 1

        egress_mtu = egress.mtu
        link = egress.link
        if link is not None and link.mtu < egress_mtu:
            egress_mtu = link.mtu
        size = packet.total_len
        if size <= egress_mtu:
            # Fits: skip the fragmentation machinery and reuse the
            # length for egress byte accounting.
            egress.send(packet, size)
            self.forwarded += 1
            return True
        try:
            pieces = fragment_packet(packet, egress_mtu)
        except FragmentationNeeded:
            self.dropped += 1
            if not self.icmp_blackhole:
                self._send_icmp_error(
                    packet, ICMPMessage.frag_needed(egress_mtu, packet.to_bytes())
                )
            return False

        for piece in pieces:
            egress.send(piece)
        self.forwarded += 1
        return True

    def _deliver_local(self, packet: Packet, interface: Interface) -> None:
        """Handle packets addressed to the router itself (echo only)."""
        if packet.is_icmp and packet.icmp.icmp_type == 8:
            reply = build_icmp(packet.ip.dst, packet.ip.src, ICMPMessage.echo_reply(packet.icmp))
            self.forward(reply)

    def _send_icmp_error(self, offending: Packet, message: ICMPMessage) -> None:
        """Send an ICMP error to the offending packet's source."""
        if self.icmp_blackhole:
            return
        if self.icmp_rate_limit is not None:
            min_gap = 1.0 / self.icmp_rate_limit
            if self._last_icmp_at is not None and self.sim.now - self._last_icmp_at < min_gap:
                self.icmp_suppressed += 1
                return
            self._last_icmp_at = self.sim.now
        source_ip = self.interfaces[0].ip if self.interfaces else 0
        error = build_icmp(source_ip, offending.ip.src, message)
        route = self.routes.lookup(offending.ip.src)
        if route is not None:
            route.interface.send(error)
