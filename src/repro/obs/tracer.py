"""Span-like flow tracing into a bounded ring buffer.

A :class:`FlowTracer` records structured dict events along a packet's
path through the gateway — ingress → classify → merge/split|caravan →
egress — plus control-plane lifecycles (PMTUD probes, worker mode
transitions, failover swaps, stall windows).  Events are plain dicts so
they serialize to JSON unchanged, and every event is stamped with
**simulation time** (the caller passes ``sim.now``; the tracer never
reads a wall clock), which keeps two same-seed runs' event sequences
identical.

The buffer is a fixed-capacity ring: tracing a long run keeps the most
recent ``capacity`` events and counts what it shed, so an always-on
tracer can never grow without bound.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from ..packet.flow import FlowKey

__all__ = ["FlowTracer"]


def _hashable(value):
    """Recursively convert lists/tuples/dicts to hashable tuples."""
    if isinstance(value, (list, tuple)):
        return tuple(_hashable(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted(
            (key, _hashable(item)) for key, item in value.items()
        ))
    return value


def _render(entry: Tuple[float, str, Dict[str, object]]) -> Dict[str, object]:
    """The event dict of one stored entry, flow keys stringified."""
    time, kind, fields = entry
    event: Dict[str, object] = {"time": time, "kind": kind}
    for name, value in fields.items():
        event[name] = str(value) if isinstance(value, FlowKey) else value
    return event


class FlowTracer:
    """A bounded ring buffer of structured trace events."""

    def __init__(self, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError("tracer capacity must be positive")
        self.capacity = capacity
        #: ``(time, kind, fields)`` as recorded; the ring sheds almost
        #: every event of a long run, so dicts are built only on read.
        self._events: "deque[Tuple[float, str, Dict[str, object]]]" = deque(
            maxlen=capacity
        )
        #: Total events ever recorded (including ones the ring shed).
        self.recorded = 0

    def __len__(self) -> int:
        return len(self._events)

    @property
    def dropped(self) -> int:
        """Events shed by the ring (recorded - retained)."""
        return self.recorded - len(self._events)

    # ------------------------------------------------------------------
    def record(self, time: float, kind: str, **fields: object) -> None:
        """Append one event.

        *time* is simulation time; *kind* names the event ("ingress",
        "merge", "health-transition", …); *fields* must be
        JSON-serializable, except that a field may be a raw
        :class:`~repro.packet.FlowKey` — it is rendered with ``str()``
        when the event is read, which per-packet callers should prefer
        to stringifying an event the ring will most likely shed.
        """
        self._events.append((time, kind, fields))
        self.recorded += 1

    # ------------------------------------------------------------------
    def events(self, kind: Optional[str] = None) -> List[Dict[str, object]]:
        """Retained events in arrival order, optionally one *kind* only."""
        return [
            _render(entry) for entry in self._events
            if kind is None or entry[1] == kind
        ]

    def kinds(self) -> Dict[str, int]:
        """Retained event count per kind (sorted by kind)."""
        counts: Dict[str, int] = {}
        for _time, kind, _fields in self._events:
            counts[kind] = counts.get(kind, 0) + 1
        return dict(sorted(counts.items()))

    def sequence(self) -> List[tuple]:
        """A hashable, order-preserving fingerprint of retained events.

        Two same-seed runs must produce equal sequences — the
        determinism guard compares these directly.  List- and
        dict-valued fields are normalized to (nested) tuples, so every
        entry really is hashable — callers can ``set()`` or dict-key
        them.
        """
        return [
            tuple(sorted(
                ((key, _hashable(value)) for key, value in event.items()),
                key=lambda kv: kv[0],
            ))
            for event in self.events()
        ]

    def clear(self) -> None:
        """Drop every retained event (the recorded total is kept)."""
        self._events.clear()

    def to_json(self) -> Dict[str, object]:
        """A JSON-friendly dump: metadata plus the retained events."""
        return {
            "capacity": self.capacity,
            "recorded": self.recorded,
            "dropped": self.dropped,
            "events": self.events(),
        }
