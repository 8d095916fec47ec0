"""Longest-prefix-match routing tables."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..packet.address import in_subnet, make_subnet
from ..sim.node import Interface

__all__ = ["Route", "RoutingTable"]


@dataclass
class Route:
    """One forwarding entry: destination prefix → egress interface."""

    network: int
    mask: int
    interface: Interface
    metric: int = 0

    @property
    def prefix_len(self) -> int:
        """Length of the prefix in bits."""
        return bin(self.mask).count("1")


class RoutingTable:
    """A list-based LPM table.

    Entries are kept sorted by descending prefix length so the first
    match is the longest.  Tables here hold at most a few dozen routes,
    so a compressed trie would be over-engineering.
    """

    def __init__(self):
        self._routes: List[Route] = []
        self._listeners: List = []
        #: Exact-destination memo; invalidated on any table change.
        #: Simulated worlds route among a handful of hosts, so every
        #: per-packet lookup after the first is a dict hit.
        self._memo: dict = {}

    def on_change(self, callback) -> None:
        """Call *callback* (no args) after any table modification.

        The resilience PMTU cache uses this to invalidate itself on
        route change: a cached path MTU describes a path that may no
        longer exist.
        """
        self._listeners.append(callback)

    def _notify(self) -> None:
        self._memo.clear()
        for callback in self._listeners:
            callback()

    def add(self, prefix: str, interface: Interface, metric: int = 0) -> Route:
        """Install ``prefix`` (e.g. ``"10.1.0.0/16"``) via *interface*."""
        network, mask = make_subnet(prefix)
        route = Route(network=network, mask=mask, interface=interface, metric=metric)
        self._routes.append(route)
        self._routes.sort(key=lambda r: (-r.prefix_len, r.metric))
        self._notify()
        return route

    def add_default(self, interface: Interface) -> Route:
        """Install a 0.0.0.0/0 route."""
        return self.add("0.0.0.0/0", interface)

    def lookup(self, destination: int) -> Optional[Route]:
        """Longest-prefix match for *destination*; None if unroutable."""
        try:
            return self._memo[destination]
        except KeyError:
            pass
        result = None
        for route in self._routes:
            if destination & route.mask == route.network:
                result = route
                break
        self._memo[destination] = result
        return result

    def remove_prefix(self, prefix: str) -> int:
        """Remove all routes for *prefix*; returns how many were removed."""
        network, mask = make_subnet(prefix)
        before = len(self._routes)
        self._routes = [
            route
            for route in self._routes
            if not (route.network == network and route.mask == mask)
        ]
        removed = before - len(self._routes)
        if removed:
            self._notify()
        return removed

    def clear(self) -> None:
        """Remove every route."""
        had_routes = bool(self._routes)
        self._routes.clear()
        if had_routes:
            self._notify()

    def __len__(self) -> int:
        return len(self._routes)
