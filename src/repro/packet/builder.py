"""Convenience constructors for packets.

Addresses may be given as dotted strings or ints.  These builders are
the entry points tests, workloads, and examples use; the hot paths
inside PXGW construct headers directly.
"""

from __future__ import annotations

import itertools
from typing import Optional, Union

from .address import str_to_ip
from .icmp import ICMPMessage
from .ip import IP_HEADER_LEN, IPProto, IPv4Header
from .packet import Packet
from .tcp import TCP_HEADER_LEN, TCPHeader, TCPOption
from .udp import UDPHeader

__all__ = ["build_tcp", "build_udp", "build_icmp", "next_ip_id", "as_ip"]

_ip_id_counter = itertools.count(1)

AddressLike = Union[int, str]


def as_ip(address: AddressLike) -> int:
    """Coerce a dotted string or int into an address int."""
    if isinstance(address, str):
        return str_to_ip(address)
    return address


def next_ip_id() -> int:
    """A process-wide monotonically increasing IP identification value."""
    return next(_ip_id_counter) & 0xFFFF


def build_tcp(
    src: AddressLike,
    dst: AddressLike,
    src_port: int,
    dst_port: int,
    payload: bytes = b"",
    seq: int = 0,
    ack: int = 0,
    flags: int = 0,
    window: int = 65535,
    mss: Optional[int] = None,
    tos: int = 0,
    ttl: int = 64,
    dont_fragment: bool = True,
    ip_id: Optional[int] = None,
) -> Packet:
    """Build a TCP packet.  TCP senders set DF by default, as real stacks do."""
    options = () if mss is None else (TCPOption.mss(mss),)
    tcp = TCPHeader(
        src_port=src_port,
        dst_port=dst_port,
        seq=seq,
        ack=ack,
        flags=flags,
        window=window,
        options=options,
    )
    ip = IPv4Header(
        src=as_ip(src),
        dst=as_ip(dst),
        protocol=IPProto.TCP,
        identification=ip_id if ip_id is not None else next_ip_id(),
        dont_fragment=dont_fragment,
        ttl=ttl,
        tos=tos,
    )
    # The IP header is built just above with no options, so its length
    # is the constant; ditto the TCP header when no MSS was requested.
    tcp_len = TCP_HEADER_LEN if not options else tcp.header_len
    ip.total_length = IP_HEADER_LEN + tcp_len + len(payload)
    return Packet(ip=ip, l4=tcp, payload=payload)


def build_udp(
    src: AddressLike,
    dst: AddressLike,
    src_port: int,
    dst_port: int,
    payload: bytes = b"",
    tos: int = 0,
    ttl: int = 64,
    dont_fragment: bool = False,
    ip_id: Optional[int] = None,
) -> Packet:
    """Build a UDP packet.  DF defaults off so routers may fragment it."""
    udp = UDPHeader(src_port=src_port, dst_port=dst_port, length=8 + len(payload))
    ip = IPv4Header(
        src=as_ip(src),
        dst=as_ip(dst),
        protocol=IPProto.UDP,
        identification=ip_id if ip_id is not None else next_ip_id(),
        dont_fragment=dont_fragment,
        ttl=ttl,
        tos=tos,
    )
    ip.total_length = IP_HEADER_LEN + 8 + len(payload)
    return Packet(ip=ip, l4=udp, payload=payload)


def build_icmp(
    src: AddressLike,
    dst: AddressLike,
    message: ICMPMessage,
    ttl: int = 64,
) -> Packet:
    """Wrap an ICMP message in an IP packet."""
    ip = IPv4Header(
        src=as_ip(src),
        dst=as_ip(dst),
        protocol=IPProto.ICMP,
        identification=next_ip_id(),
        ttl=ttl,
    )
    ip.total_length = ip.header_len + 8 + len(message.payload)
    return Packet(ip=ip, l4=message)
