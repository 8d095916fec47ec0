"""Discrete-event simulation substrate: engine, links, netem."""

from .engine import EventHandle, Simulator
from .link import Link, LinkStats, connect
from .netem import GilbertElliott, Netem
from .node import Interface, Node

__all__ = [
    "Simulator",
    "EventHandle",
    "Link",
    "LinkStats",
    "connect",
    "Netem",
    "GilbertElliott",
    "Interface",
    "Node",
]
