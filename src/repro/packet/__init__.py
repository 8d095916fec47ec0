"""Byte-accurate packet formats: Ethernet, IPv4, TCP, UDP, ICMP, GTP-U.

This package is the bottom layer of the reproduction: everything above
(the simulator, PXGW, F-PMTUD, the UPF) manipulates these objects.
"""

from .address import in_subnet, ip_to_str, make_subnet, str_to_ip
from .builder import as_ip, build_icmp, build_tcp, build_udp, next_ip_id
from .checksum import incremental_update, internet_checksum, verify_checksum
from .ethernet import (
    ETH_WIRE_OVERHEAD,
    EthernetHeader,
    EtherType,
    wire_bytes_for_payload,
)
from .flow import FlowKey
from .fragment import FragmentationNeeded, Reassembler, fragment_packet
from .gtpu import GTPU_PORT, GTPUHeader
from .icmp import ICMPMessage, ICMPType
from .ip import IP_HEADER_LEN, IP_MAX_PACKET, PX_CARAVAN_TOS, IPProto, IPv4Header
from .packet import Packet
from .tcp import TCP_HEADER_LEN, TCPFlags, TCPHeader, TCPOption
from .udp import UDP_HEADER_LEN, UDPHeader

__all__ = [
    "EthernetHeader",
    "EtherType",
    "ETH_WIRE_OVERHEAD",
    "wire_bytes_for_payload",
    "IPv4Header",
    "IPProto",
    "IP_HEADER_LEN",
    "IP_MAX_PACKET",
    "PX_CARAVAN_TOS",
    "TCPHeader",
    "TCPFlags",
    "TCPOption",
    "TCP_HEADER_LEN",
    "UDPHeader",
    "UDP_HEADER_LEN",
    "ICMPMessage",
    "ICMPType",
    "GTPUHeader",
    "GTPU_PORT",
    "Packet",
    "FlowKey",
    "fragment_packet",
    "FragmentationNeeded",
    "Reassembler",
    "internet_checksum",
    "verify_checksum",
    "incremental_update",
    "ip_to_str",
    "str_to_ip",
    "make_subnet",
    "in_subnet",
    "build_tcp",
    "build_udp",
    "build_icmp",
    "next_ip_id",
    "as_ip",
]
