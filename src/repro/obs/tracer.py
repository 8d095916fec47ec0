"""Span-like flow tracing into a bounded ring buffer.

A :class:`FlowTracer` is a :class:`~repro.core.worker.WorkerObserver`:
it records structured events along a packet's path through the worker —
ingress → classify → merge/split|caravan → egress — plus the
control-plane lifecycles the other emitters announce (PMTUD probes,
failover swaps, stall windows, health transitions).  Events read back as plain dicts, so they
serialize to JSON unchanged, and every event is stamped with
**simulation time** (the tracer never reads a wall clock), which keeps
two same-seed runs' event sequences identical.

The buffer is a fixed-capacity ring: tracing a long run keeps the most
recent ``capacity`` events and counts what it shed, so an always-on
tracer can never grow without bound.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Dict, List, Optional

from ..core.caravan import caravan_inner_count, is_caravan
from ..core.config import Bound
from ..core.worker import WorkerMode, WorkerObserver
from ..packet.flow import FlowKey

__all__ = ["FlowTracer"]

#: Field names of the seam's events, stored as ``(time, kind, *values)``:
#: the ring sheds almost every event, so names are attached only on read.
#: An ``on_event`` kind missing here (a span-only stage, a fleet move) is
#: not traced; fields of a traced kind missing here are not kept.
_FIELDS = {
    "ingress": ("worker", "bound", "proto", "bytes", "flow"),
    "classify": ("worker", "flow", "elephant"),
    "merge": ("worker", "bytes", "spliced"),
    "split": ("worker", "segments", "bytes"),
    "caravan-built": ("worker", "inner", "bytes"),
    "caravan-opened": ("worker", "inner"),
    "egress": ("worker", "bound", "bytes"),
    "flush": ("worker", "packets"),
    "mode-transition": ("worker", "from_mode", "to_mode"),
    "stall": ("gateway", "until"),
    "stall-drain": ("gateway", "queued"),
    "worker-swap": ("gateway", "from_worker", "to_worker"),
    "health-transition": ("gateway", "from_state", "to_state", "reason"),
    "failover-takeover": ("gateway", "to_worker", "flushed", "reason",
                          "checkpoint_age"),
    "pmtud-probe": ("probe_id", "dst", "size"),
    "pmtud-report": ("probe_id", "pmtu", "fragments"),
    "pmtud-report-rejected": ("probe_id", "reason", "pmtu"),
    "pmtud-timeout": ("probe_id",),
}


def _hashable(value):
    """Recursively convert lists/tuples/dicts to hashable tuples."""
    if isinstance(value, (list, tuple)):
        return tuple(_hashable(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted(
            (key, _hashable(item)) for key, item in value.items()
        ))
    return value


def _render(entry: tuple) -> Dict[str, object]:
    """The event dict of one stored entry, flow keys stringified."""
    time, kind, fields = entry[:3]
    if type(fields) is not dict:
        fields = dict(zip(_FIELDS[kind], entry[2:]))
    event: Dict[str, object] = {"time": time, "kind": kind}
    for name, value in fields.items():
        event[name] = str(value) if isinstance(value, FlowKey) else value
    return event


class FlowTracer(WorkerObserver):
    """A bounded ring buffer of structured trace events."""

    def __init__(self, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError("tracer capacity must be positive")
        self.capacity = capacity
        #: ``(time, kind, fields)`` from :meth:`record`, ``(time, kind,
        #: *values)`` from the worker; dicts are built only on read.
        self._events: "deque[tuple]" = deque(maxlen=capacity)
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

        *time* is simulation time; *kind* names the event ("stall",
        "health-transition", …); *fields* must be JSON-serializable,
        except that a field may be a raw :class:`~repro.packet.FlowKey`,
        rendered with ``str()`` when the event is read.
        """
        self._events.append((time, kind, fields))
        self.recorded += 1

    # ------------------------------------------------------------------
    # Worker events (repro.core.worker)
    # ------------------------------------------------------------------
    def on_packet(self, worker, now, ingress_at, packet, size, bound, key,
                  state, stage, outputs) -> None:
        append = self._events.append
        index = worker.index
        emitted = len(outputs)
        recorded = 1 + emitted
        append((now, "ingress", index, bound, packet.ip.protocol, size,
                key if key is not None else "-"))
        if state is not None:
            append((now, "classify", index, key, state.is_elephant))
            recorded += 1
        if stage == "merge":
            for out in outputs:
                append((now, "merge", index, out.total_len,
                        bool(out.meta.get("spliced"))))
            recorded += emitted
        elif stage == "split":
            # BYPASS never recorded its splits; the pinned traces hold it.
            if worker.mode != WorkerMode.BYPASS:
                append((now, "split", index, emitted, size))
                recorded += 1
        elif stage == "caravan":
            for out in outputs:
                if is_caravan(out):
                    append((now, "caravan-built", index,
                            caravan_inner_count(out), out.total_len))
                    recorded += 1
        elif stage == "caravan-open":
            append((now, "caravan-opened", index, emitted))
            recorded += 1
        for out in outputs:
            append((now, "egress", index, bound, out.total_len))
        self.recorded += recorded

    def on_flush(self, worker, now, flushed, batch) -> None:
        index = worker.index
        if batch and flushed:
            self._events.append((now, "flush", index, len(flushed)))
            self.recorded += 1
        for out in flushed:
            self._events.append((now, "egress", index, Bound.INBOUND, out.total_len))
        self.recorded += len(flushed)

    def on_mode(self, worker, now, old, new) -> None:
        self._events.append((now, "mode-transition", worker.index, old, new))
        self.recorded += 1

    def on_event(self, source, now, kind, **fields) -> None:
        names = _FIELDS.get(kind)
        if names is not None:
            self._events.append((now, kind, *[fields[name] for name in names]))
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
        return dict(sorted(Counter(entry[1] for entry in self._events).items()))

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
