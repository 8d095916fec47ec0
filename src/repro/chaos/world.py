"""One border world: a PXGW at the edge of a b-network, stated as data.

:func:`build` wires every world (chaos, attack, observed, CLI) from a
:class:`WorldSpec` in one order: hosts, the gateway ``pxgw``, routers,
links in spec order, routes, internal marks toward ``inside``, taps.
The seed and that order fix every address and link RNG, which every
digest hashes: they are data, not style (docs/CHAOS.md → "Worlds").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core import GatewayConfig, PXGateway
from ..net import Topology
from ..sim import Netem
from .oracle import ChaosTap

__all__ = ["IMTU", "EMTU", "LinkSpec", "WorldSpec", "World", "build"]

#: The wire MTUs inside and outside the gateway (its config may differ).
IMTU = 9000
EMTU = 1500


@dataclass(frozen=True)
class LinkSpec:
    """One link; ``roles`` names its a→b and b→a directions ("" = none)."""

    a: str
    b: str
    mtu: int
    bandwidth_bps: float
    delay: float
    netem: Optional[Netem] = None
    roles: Tuple[str, str] = ("", "")


@dataclass(frozen=True)
class WorldSpec:
    """A border world as data; its gateway is always the node ``pxgw``."""

    seed: int
    hosts: Tuple[str, ...]
    links: Tuple[LinkSpec, ...]
    config: GatewayConfig
    routers: Tuple[str, ...] = ()
    #: Hosts whose link into ``pxgw`` faces the b-network.
    inside: Tuple[str, ...] = ()
    #: Link roles that get a :class:`ChaosTap`.
    taps: Tuple[str, ...] = ()


@dataclass
class World:
    """A built :class:`WorldSpec`: nodes by name, links and taps by role."""

    topo: Topology
    gateway: PXGateway
    nodes: Dict[str, object]
    links: Dict[str, object]
    taps: Dict[str, ChaosTap]

    def install(self, injectors: Dict[str, object]) -> None:
        """Put each fault injector on its role's link."""
        for role, injector in injectors.items():
            if role not in self.links:
                # A typo'd role would otherwise silently no-op the fault.
                raise ValueError(f"fault plan targets unknown link role {role!r} "
                                 f"(this world has {sorted(self.links)})")
            self.links[role].injector = injector


def build(spec: WorldSpec) -> World:
    """Wire *spec* into a fresh topology, routed, marked and tapped."""
    topo = Topology(seed=spec.seed)
    for name in spec.hosts:
        topo.add_host(name)
    gateway = topo.add_node(PXGateway(topo.sim, "pxgw", config=spec.config))
    for name in spec.routers:
        topo.add_router(name)
    nodes, links = topo.nodes, {}
    for link in spec.links:
        pair = topo.link(nodes[link.a], nodes[link.b], mtu=link.mtu, netem=link.netem,
                         bandwidth_bps=link.bandwidth_bps, delay=link.delay)
        links.update((role, way) for role, way in zip(link.roles, pair) if role)
    topo.build_routes()
    for name in spec.inside:
        gateway.mark_internal(topo.edge(gateway, nodes[name])[0])
    taps = {role: ChaosTap(role) for role in spec.taps}
    for role, tap in taps.items():
        links[role].add_tap(tap)
    return World(topo, gateway, nodes, links, taps)
