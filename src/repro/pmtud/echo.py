"""A small UDP echo responder used by the baseline PMTUD methods.

Classical PMTUD and PLPMTUD both need positive confirmation that a
probe of a given size reached the destination; this daemon echoes a
short acknowledgment carrying the probe id (the packetization-layer
ACK role in RFC 4821 terms).
"""

from __future__ import annotations

import struct
from typing import Optional

from ..net.host import Host
from ..packet import Packet

__all__ = [
    "ProbeEchoDaemon",
    "ECHO_PORT",
    "pack_echo_ack",
    "pack_echo_probe",
    "parse_echo_ack",
]

ECHO_PORT = 7838
_ACK_MAGIC = b"PEAK"
_PROBE_MAGIC = b"PEPR"


def pack_echo_probe(probe_id: int, size: int) -> bytes:
    """A padded probe payload for an IP packet of exactly *size* bytes."""
    payload_len = size - 28
    head = _PROBE_MAGIC + struct.pack("!I", probe_id)
    if payload_len < len(head):
        raise ValueError(f"probe size {size} too small")
    return head + bytes(payload_len - len(head))


def pack_echo_ack(probe_id: int) -> bytes:
    """An ack for *probe_id* — what the daemon sends, and exactly what
    an off-path forger has to guess to fake packetization-layer
    delivery (the RFC 4821 inflation attack modelled in
    :mod:`repro.chaos.attacks`)."""
    return _ACK_MAGIC + struct.pack("!I", probe_id)


def parse_echo_ack(payload: bytes) -> Optional[int]:
    """The probe id inside an ack, or None."""
    if len(payload) < 8 or payload[:4] != _ACK_MAGIC:
        return None
    return struct.unpack_from("!I", payload, 4)[0]


class ProbeEchoDaemon:
    """Acknowledges echo probes with a minimal UDP reply."""

    def __init__(self, host: Host):
        self.host = host
        self.acks_sent = 0
        host.on_udp(ECHO_PORT, self._on_probe)

    def _on_probe(self, packet: Packet, host: Host) -> None:
        if len(packet.payload) < 8 or packet.payload[:4] != _PROBE_MAGIC:
            return
        probe_id = struct.unpack_from("!I", packet.payload, 4)[0]
        ack = pack_echo_ack(probe_id)
        host.send_udp(packet.ip.src, ECHO_PORT, packet.udp.src_port, ack)
        self.acks_sent += 1
