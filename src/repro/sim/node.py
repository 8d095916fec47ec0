"""Node and interface abstractions the network layer builds on."""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..packet import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Simulator
    from .link import Link

__all__ = ["Interface", "Node"]


class Interface:
    """One attachment point of a node: an IP address plus its link.

    The interface MTU is what the *node* will emit; the attached link
    additionally enforces its own MTU (the two are usually equal, but a
    misconfigured pair is a useful failure-injection case).
    """

    def __init__(self, node: "Node", ip: int, mtu: int = 1500, name: str = ""):
        self.node = node
        self.ip = ip
        self.mtu = mtu
        self.name = name or f"{node.name}.if{len(node.interfaces)}"
        self.link: Optional["Link"] = None
        self.tx_packets = 0
        self.tx_bytes = 0
        self.rx_packets = 0
        self.rx_bytes = 0

    def send(self, packet: Packet, size: Optional[int] = None) -> bool:
        """Transmit *packet* onto the attached link.

        Returns False when there is no link or the link queue dropped
        the packet.  *size* is the packet's ``total_len`` when the
        caller already computed it (e.g. a router's MTU check).
        """
        if self.link is None:
            return False
        if size is None:
            size = packet.total_len
        self.tx_packets += 1
        self.tx_bytes += size
        return self.link.transmit(packet, size)

    def deliver(self, packet: Packet, size: Optional[int] = None) -> None:
        """Called by the link when a packet arrives here.

        *size* is the packet's ``total_len`` when the link already
        computed it (saves re-deriving it for byte accounting).
        """
        self.rx_packets += 1
        self.rx_bytes += packet.total_len if size is None else size
        self.node.receive(packet, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from ..packet import ip_to_str

        return f"<Interface {self.name} {ip_to_str(self.ip)} mtu={self.mtu}>"


class Node:
    """Base class for hosts, routers, and gateways."""

    def __init__(self, sim: "Simulator", name: str):
        self.sim = sim
        self.name = name
        self.interfaces: List[Interface] = []
        # Address → interface map: ``owns_address`` runs once per
        # received packet on routers and gateways, so the linear scan
        # over interfaces was on the per-packet path.  Interface IPs
        # are fixed at creation, so the map never goes stale.
        self._if_by_ip: dict = {}

    def add_interface(self, ip: int, mtu: int = 1500, name: str = "") -> Interface:
        """Create and register a new interface."""
        interface = Interface(self, ip, mtu=mtu, name=name)
        self.interfaces.append(interface)
        # First interface wins for duplicate addresses, matching the
        # original in-order scan.
        self._if_by_ip.setdefault(ip, interface)
        return interface

    def interface_for(self, ip: int) -> Optional[Interface]:
        """The interface owning address *ip*, if any."""
        return self._if_by_ip.get(ip)

    def owns_address(self, ip: int) -> bool:
        """True if any interface has address *ip*."""
        return ip in self._if_by_ip

    def receive(self, packet: Packet, interface: Interface) -> None:
        """Handle an arriving packet; subclasses override."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
