"""Topology builder: declarative networks with automatic addressing/routing.

``Topology`` wires hosts, routers, and gateways with point-to-point
links, allocates a /30 per link from 10.0.0.0/8, and computes static
routes over shortest paths (breadth-first, first-linked neighbour wins
a tie).  This is the scaffolding every experiment uses to recreate the
paper's testbeds.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

from ..packet import ip_to_str, str_to_ip
from ..sim.engine import Simulator
from ..sim.link import Link, connect
from ..sim.netem import Netem
from ..sim.node import Interface, Node
from .host import Host
from .router import Router

__all__ = ["Topology"]


class Topology:
    """A network under construction plus the simulator running it."""

    def __init__(self, seed: int = 0):
        self.sim = Simulator()
        self.rng = random.Random(seed)
        self.nodes: Dict[str, Node] = {}
        self._edges: Dict[Tuple[str, str], Tuple[Interface, Interface, Link, Link]] = {}
        self._adjacency: Dict[str, List[str]] = {}
        self._link_index = 0

    # ------------------------------------------------------------------
    # Node creation
    # ------------------------------------------------------------------
    def add_host(self, name: str, reassemble: bool = True) -> Host:
        """Create and register a host."""
        host = Host(self.sim, name, reassemble=reassemble)
        self._register(host)
        return host

    def add_router(
        self,
        name: str,
        icmp_blackhole: bool = False,
        filter_fragments: bool = False,
        icmp_rate_limit: "float | None" = None,
    ) -> Router:
        """Create and register a router."""
        router = Router(
            self.sim,
            name,
            icmp_blackhole=icmp_blackhole,
            filter_fragments=filter_fragments,
            icmp_rate_limit=icmp_rate_limit,
        )
        self._register(router)
        return router

    def add_node(self, node: Node) -> Node:
        """Register an externally constructed node (e.g. a PXGW)."""
        self._register(node)
        return node

    def _register(self, node: Node) -> None:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        self._adjacency[node.name] = []

    # ------------------------------------------------------------------
    # Links
    # ------------------------------------------------------------------
    def link(
        self,
        a: Node,
        b: Node,
        bandwidth_bps: float = 10e9,
        delay: float = 1e-6,
        mtu: int = 1500,
        netem: Optional[Netem] = None,
        queue_bytes: Optional[int] = None,
        ip_a: Optional[str] = None,
        ip_b: Optional[str] = None,
    ) -> "Tuple[Link, Link]":
        """Connect two nodes with a bidirectional link.

        Both interface MTUs are the link MTU.  Addresses come from an
        auto-allocated /30 unless given explicitly.
        """
        index = self._link_index
        self._link_index += 1
        default_a = f"10.{(index >> 6) & 0xFF}.{(index & 0x3F) * 4}.1"
        default_b = f"10.{(index >> 6) & 0xFF}.{(index & 0x3F) * 4}.2"
        addr_a = str_to_ip(ip_a) if ip_a else str_to_ip(default_a)
        addr_b = str_to_ip(ip_b) if ip_b else str_to_ip(default_b)

        iface_a = a.add_interface(addr_a, mtu=mtu)
        iface_b = b.add_interface(addr_b, mtu=mtu)
        kwargs = dict(
            bandwidth_bps=bandwidth_bps,
            delay=delay,
            mtu=mtu,
            netem=netem,
            rng=random.Random(self.rng.getrandbits(32)),
        )
        if queue_bytes is not None:
            kwargs["queue_bytes"] = queue_bytes
        forward, backward = connect(self.sim, iface_a, iface_b, **kwargs)

        self._edges[(a.name, b.name)] = (iface_a, iface_b, forward, backward)
        self._edges[(b.name, a.name)] = (iface_b, iface_a, backward, forward)
        self._adjacency[a.name].append(b.name)
        self._adjacency[b.name].append(a.name)
        return forward, backward

    def edge(self, a: Node, b: Node) -> "Tuple[Interface, Interface, Link, Link]":
        """The (iface_a, iface_b, link_ab, link_ba) tuple for an edge."""
        return self._edges[(a.name, b.name)]

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def build_routes(self) -> None:
        """(Re)compute static routes: /32 toward every address, everywhere."""
        paths = self._all_shortest_paths()
        addresses: List[Tuple[str, int]] = [
            (node.name, interface.ip)
            for node in self.nodes.values()
            for interface in node.interfaces
        ]
        for node in self.nodes.values():
            table = getattr(node, "routes", None)
            if table is None:
                continue
            table.clear()
            for owner, address in addresses:
                if owner == node.name:
                    continue
                next_hop = paths.get((node.name, owner))
                if next_hop is None:
                    continue
                iface_out, _, _, _ = self._edges[(node.name, next_hop)]
                table.add(f"{ip_to_str(address)}/32", iface_out)

    def _all_shortest_paths(self) -> Dict[Tuple[str, str], str]:
        """Map (src, dst) -> next hop from src toward dst."""
        next_hops: Dict[Tuple[str, str], str] = {}
        for src in self._adjacency:
            visited = {src: None}
            queue = deque([src])
            while queue:
                current = queue.popleft()
                for neighbor in self._adjacency[current]:
                    if neighbor not in visited:
                        visited[neighbor] = current
                        queue.append(neighbor)
            for dst, parent in visited.items():
                if dst == src or parent is None:
                    continue
                hop = dst
                while visited[hop] != src:
                    hop = visited[hop]
                next_hops[(src, dst)] = hop
        return next_hops

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the simulation (delegates to the engine)."""
        return self.sim.run(until=until, max_events=max_events)

    def links(self) -> Iterable[Link]:
        """All directed links (each physical link appears twice)."""
        seen = set()
        for iface_a, _iface_b, forward, backward in self._edges.values():
            for link in (forward, backward):
                if id(link) not in seen:
                    seen.add(id(link))
                    yield link
