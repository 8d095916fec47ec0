"""End hosts: protocol demux, UDP sockets, ICMP hooks, reassembly.

A host reassembles fragments before delivery (as OS stacks do), then
demultiplexes to registered listeners.  TCP connections from
``repro.tcpstack`` and PMTUD agents from ``repro.pmtud`` register
themselves through the hook methods here.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..packet import (
    ICMPMessage,
    IPProto,
    Packet,
    Reassembler,
    build_icmp,
    build_udp,
)
from ..sim.engine import Simulator
from ..sim.node import Interface, Node
from .routing import RoutingTable

__all__ = ["Host"]

UdpListener = Callable[[Packet, "Host"], None]
IcmpListener = Callable[[Packet, ICMPMessage], None]
TcpListener = Callable[[Packet], None]


class Host(Node):
    """An end host with a minimal IP stack.

    Hosts inside a b-network can run the paper's *modified* stack
    (§4.1): :meth:`enable_caravan_stack` makes the RX path transparently
    unpack PX-caravan bundles before delivery, and adds
    :meth:`send_udp_bulk`, which bundles outgoing datagrams into
    caravans sized to the iMTU (the host-side analogue of UDP_SEGMENT).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        reassemble: bool = True,
    ):
        super().__init__(sim, name)
        self.routes = RoutingTable()
        #: Real stacks reassemble before delivery; disabling this models
        #: a host (or path policy) that cannot accept fragments.
        self.reassemble = reassemble
        self.reassembler = Reassembler()
        #: iMTU of the caravan-aware stack, or None (unmodified host).
        self.caravan_imtu: "int | None" = None
        self._udp_listeners: Dict[int, UdpListener] = {}
        self._tcp_listeners: Dict[Tuple[int, int, int], TcpListener] = {}
        self._tcp_accepting: Dict[int, TcpListener] = {}
        self._icmp_listeners: List[IcmpListener] = []
        #: Caravans dropped because their body failed to decode (a
        #: damaged bundle; real stacks discard undecodable input).
        self.caravan_decode_errors = 0
        #: Packets that arrived with nobody listening.
        self.unclaimed: List[Packet] = []

    # ------------------------------------------------------------------
    # Addressing helpers
    # ------------------------------------------------------------------
    @property
    def ip(self) -> int:
        """The primary (first-interface) address."""
        if not self.interfaces:
            raise RuntimeError(f"host {self.name} has no interface")
        return self.interfaces[0].ip

    def egress(self, destination: int) -> Optional[Interface]:
        """The interface a packet to *destination* leaves through."""
        route = self.routes.lookup(destination)
        return route.interface if route else None

    @property
    def rx_packets(self) -> int:
        """Packets received, over all interfaces (fragments count each)."""
        return sum(interface.rx_packets for interface in self.interfaces)

    @property
    def rx_bytes(self) -> int:
        """IP bytes received, over all interfaces."""
        return sum(interface.rx_bytes for interface in self.interfaces)

    def send(self, packet: Packet, size: Optional[int] = None) -> bool:
        """Route and transmit a locally generated packet.

        *size* is the packet's ``total_len`` when the caller built the
        packet and so already knows it.
        """
        route = self.routes.lookup(packet.ip.dst)
        if route is None:
            return False
        packet.timestamp = self.sim.now
        return route.interface.send(packet, size)

    # ------------------------------------------------------------------
    # Listener registration
    # ------------------------------------------------------------------
    def on_udp(self, port: int, listener: UdpListener) -> None:
        """Register a UDP listener on *port*."""
        self._udp_listeners[port] = listener

    def close_udp(self, port: int) -> None:
        """Remove a UDP listener."""
        self._udp_listeners.pop(port, None)

    def on_tcp(self, local_port: int, peer_ip: int, peer_port: int, listener: TcpListener) -> None:
        """Register a fully-qualified TCP connection listener."""
        self._tcp_listeners[(local_port, peer_ip, peer_port)] = listener

    def on_tcp_accept(self, local_port: int, listener: TcpListener) -> None:
        """Register a listening (accepting) TCP port."""
        self._tcp_accepting[local_port] = listener

    def close_tcp(self, local_port: int, peer_ip: int, peer_port: int) -> None:
        """Remove a TCP connection listener."""
        self._tcp_listeners.pop((local_port, peer_ip, peer_port), None)

    def on_icmp(self, listener: IcmpListener) -> None:
        """Subscribe to ICMP messages delivered to this host."""
        self._icmp_listeners.append(listener)

    # ------------------------------------------------------------------
    # Convenience senders
    # ------------------------------------------------------------------
    def send_udp(
        self,
        dst: int,
        src_port: int,
        dst_port: int,
        payload: bytes,
        tos: int = 0,
        dont_fragment: bool = False,
    ) -> bool:
        """Build and send one UDP datagram."""
        packet = build_udp(
            self.ip, dst, src_port, dst_port, payload=payload, tos=tos,
            dont_fragment=dont_fragment,
        )
        return self.send(packet)

    # ------------------------------------------------------------------
    # The modified (caravan-aware) stack of §4.1
    # ------------------------------------------------------------------
    def enable_caravan_stack(self, imtu: int = 9000) -> None:
        """Turn on the b-network host stack: transparent caravan RX
        decode plus iMTU-sized TX bundling via :meth:`send_udp_bulk`.

        Also answers gateway capability queries (resilience layer), so
        a negotiating PXGW learns this host may receive caravans; an
        unmodified host stays silent and lands in the negative cache.
        """
        if imtu <= 576:
            raise ValueError(f"implausible iMTU {imtu}")
        self.caravan_imtu = imtu

        from ..resilience.negotiation import CARAVAN_CAP_PORT, make_cap_responder

        self.on_udp(CARAVAN_CAP_PORT, make_cap_responder(imtu))

    def send_udp_bulk(self, dst: int, src_port: int, dst_port: int,
                      datagrams: "List[bytes]") -> int:
        """Send many datagrams, bundling into caravans when enabled.

        Bundles as many whole datagrams per caravan as fit the iMTU
        budget (outer 28 B + 8 B inner header per datagram), like
        UDP_SEGMENT batching a sendmmsg.  Returns packets transmitted.
        """
        if self.caravan_imtu is None:
            sent = 0
            for payload in datagrams:
                sent += bool(self.send_udp(dst, src_port, dst_port, payload))
            return sent

        from ..core.caravan import encode_caravan

        budget = self.caravan_imtu - 28
        sent = 0
        batch: List = []
        batch_bytes = 0
        ip_id = build_udp(self.ip, dst, src_port, dst_port).ip.identification

        def flush():
            nonlocal sent, batch, batch_bytes
            if not batch:
                return
            caravan = encode_caravan(batch)
            caravan.timestamp = self.sim.now
            if self.send(caravan):
                sent += 1
            batch = []
            batch_bytes = 0

        for payload in datagrams:
            record = 8 + len(payload)
            if batch and batch_bytes + record > budget:
                flush()
            ip_id = (ip_id + 1) & 0xFFFF
            batch.append(build_udp(self.ip, dst, src_port, dst_port,
                                   payload=payload, ip_id=ip_id))
            batch_bytes += record
        flush()
        return sent

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, interface: Interface) -> None:
        """Reassemble if needed, then demux to the registered listener."""
        ip = packet.ip
        if ip.more_fragments or ip.fragment_offset > 0:
            if not self.reassemble:
                return  # host drops fragments
            complete = self.reassembler.add(packet, now=self.sim.now)
            if complete is None:
                return
            packet = complete
            ip = packet.ip

        if ip.protocol == IPProto.UDP:
            if self.caravan_imtu is not None:
                from ..core.caravan import decode_caravan, is_caravan

                if is_caravan(packet):
                    try:
                        datagrams = decode_caravan(packet)
                    except ValueError:
                        self.caravan_decode_errors += 1
                        return
                    for datagram in datagrams:
                        self._deliver_udp(datagram)
                    return
            self._deliver_udp(packet)
        elif ip.protocol == IPProto.TCP:
            tcp = packet.l4
            key = (tcp.dst_port, ip.src, tcp.src_port)
            listener = self._tcp_listeners.get(key) or self._tcp_accepting.get(
                tcp.dst_port
            )
            if listener:
                listener(packet)
            else:
                self.unclaimed.append(packet)
        elif ip.protocol == IPProto.ICMP:
            self._handle_icmp(packet)
        else:
            self.unclaimed.append(packet)

    def _deliver_udp(self, packet: Packet) -> None:
        listener = self._udp_listeners.get(packet.udp.dst_port)
        if listener:
            listener(packet, self)
        else:
            self.unclaimed.append(packet)

    def _handle_icmp(self, packet: Packet) -> None:
        message = packet.icmp
        if message.icmp_type == 8:  # echo request -> reply
            reply = build_icmp(self.ip, packet.ip.src, ICMPMessage.echo_reply(message))
            self.send(reply)
            return
        for listener in self._icmp_listeners:
            listener(packet, message)
