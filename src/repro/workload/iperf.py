"""iPerf-style simulated workloads: launch and measure TCP flows.

These helpers drive the event simulator for the WAN experiments
(Figure 1d, §5.2-sender) where throughput is determined by congestion
control dynamics rather than CPU cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..net.host import Host
from ..net.topology import Topology
from ..tcpstack import Reno, TCPConnection, TCPListener

__all__ = ["IperfResult", "run_tcp_flow"]


@dataclass
class IperfResult:
    """Outcome of one measured flow."""

    bytes_delivered: int
    duration: float
    retransmits: int
    client_mss: int

    @property
    def throughput_bps(self) -> float:
        return self.bytes_delivered * 8.0 / self.duration if self.duration > 0 else 0.0


def run_tcp_flow(
    topo: Topology,
    client: Host,
    server: Host,
    duration: float,
    mss: int = 1460,
    server_mss: Optional[int] = None,
    port: int = 5201,
    client_port: int = 40000,
    cc_class=Reno,
    handshake_grace: float = 1.0,
    omit: float = 0.0,
    total_bytes: int = 1 << 62,
) -> IperfResult:
    """Run one bulk TCP flow for *duration* seconds and measure goodput.

    The handshake completes during a grace period first; *omit* then
    discards the initial slow-start transient from the measurement,
    like iPerf's ``--omit`` flag.
    """
    listener = TCPListener(server, port, mss=server_mss if server_mss else mss,
                           cc_class=cc_class)
    conn = TCPConnection(client, client_port, server.ip, port, mss=mss, cc_class=cc_class)
    conn.connect()
    topo.run(until=topo.sim.now + handshake_grace)
    if not listener.connections:
        raise RuntimeError("handshake did not complete within the grace period")
    server_conn = listener.connections[0]
    conn.send_bulk(total_bytes)
    if omit > 0:
        topo.run(until=topo.sim.now + omit)
    delivered_before = server_conn.bytes_delivered
    start = topo.sim.now
    topo.run(until=start + duration)
    return IperfResult(
        bytes_delivered=server_conn.bytes_delivered - delivered_before,
        duration=duration,
        retransmits=conn.retransmits,
        client_mss=conn.send_mss,
    )

