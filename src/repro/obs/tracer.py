"""Span-like flow tracing into a bounded ring buffer.

A :class:`FlowTracer` is a :class:`~repro.core.worker.WorkerObserver`:
it records structured events along a packet's path through the worker —
ingress → classify → merge/split|caravan → egress — plus the
control-plane lifecycles the other emitters announce (PMTUD probes,
stall windows, health transitions).  Every event is
stamped with **simulation time** (the tracer never reads a wall clock),
which keeps two same-seed runs' event sequences identical.

An event is one packed ``bytes`` record in its kind's fixed layout
(:data:`repro.obs.codec.EVENTS`) that becomes a plain dict, ready for
JSON, only on read: the ring sheds almost every event, so nothing else
is built per event, and it holds nothing the garbage collector tracks.
A field the layout cannot carry raises where the event is packed.

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
from .codec import EVENTS, Labels, flow_fields

__all__ = ["FlowTracer"]

_LAYOUTS = tuple(EVENTS.values())
# The worker's nine kinds come first; each is packed inline, as
# ``pack(code, now, *fields)``.
_INGRESS, _CLASSIFY, _MERGE, _SPLIT, _BUILT, _OPENED, _EGRESS, _FLUSH, _MODE = range(9)
_ingress, _classify, _merge, _split, _built, _opened, _egress, _flush, _mode = (
    layout.pack for layout in _LAYOUTS[:9])


class FlowTracer(WorkerObserver):
    """A bounded ring buffer of structured trace events."""

    def __init__(self, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError("tracer capacity must be positive")
        self.capacity = capacity
        self._events: "deque[bytes]" = deque(maxlen=capacity)
        self._labels = Labels()
        #: Total events ever recorded (including ones the ring shed).
        self.recorded = 0

    def __len__(self) -> int:
        return len(self._events)

    @property
    def dropped(self) -> int:
        """Events shed by the ring (recorded - retained)."""
        return self.recorded - len(self._events)

    # ------------------------------------------------------------------
    # Worker events (repro.core.worker)
    # ------------------------------------------------------------------
    def on_packet(self, worker, now, ingress_at, packet, size, bound, key,
                  state, stage, outputs) -> None:
        append = self._events.append
        index = worker.index
        bound = self._labels[bound]
        if type(key) is FlowKey:
            tag = 1
            proto, src, sport, dst, dport = key  # unpacked: ``*key`` is slow
        else:
            tag, proto, src, sport, dst, dport = flow_fields(key)
        emitted = len(outputs)
        recorded = 1 + emitted
        append(_ingress(_INGRESS, now, index, bound, packet.ip.protocol, size,
                        tag, proto, src, sport, dst, dport))
        if state is not None:
            append(_classify(_CLASSIFY, now, index,
                             tag, proto, src, sport, dst, dport, state.is_elephant))
            recorded += 1
        if stage == "merge":
            for out in outputs:
                append(_merge(_MERGE, now, index, out.total_len,
                              bool(out.meta.get("spliced"))))
            recorded += emitted
        elif stage == "split":
            # BYPASS never recorded its splits; the pinned traces hold it.
            if worker.mode != WorkerMode.BYPASS:
                append(_split(_SPLIT, now, index, emitted, size))
                recorded += 1
        elif stage == "caravan":
            for out in outputs:
                if is_caravan(out):
                    append(_built(_BUILT, now, index,
                                  caravan_inner_count(out), out.total_len))
                    recorded += 1
        elif stage == "caravan-open":
            append(_opened(_OPENED, now, index, emitted))
            recorded += 1
        for out in outputs:
            append(_egress(_EGRESS, now, index, bound, out.total_len))
        self.recorded += recorded

    def on_flush(self, worker, now, flushed, batch) -> None:
        index = worker.index
        append = self._events.append
        if batch and flushed:
            append(_flush(_FLUSH, now, index, len(flushed)))
            self.recorded += 1
        bound = self._labels[Bound.INBOUND]
        for out in flushed:
            append(_egress(_EGRESS, now, index, bound, out.total_len))
        self.recorded += len(flushed)

    def on_mode(self, worker, now, old, new) -> None:
        self._events.append(_mode(_MODE, now, worker.index, self._labels[old], self._labels[new]))
        self.recorded += 1

    def on_event(self, source, now, kind, **fields) -> None:
        layout = EVENTS.get(kind)
        if layout is not None:
            self._events.append(layout.encode(self._labels, now, fields))
            self.recorded += 1

    # ------------------------------------------------------------------
    def events(self, kind: Optional[str] = None) -> List[Dict[str, object]]:
        """Retained events in arrival order, optionally one *kind* only."""
        names = self._labels.names
        if kind is None:
            return [_LAYOUTS[record[0]].decode(record, names) for record in self._events]
        layout = EVENTS.get(kind)
        if layout is None:
            return []
        code = layout.code
        return [layout.decode(record, names) for record in self._events
                if record[0] == code]

    def kinds(self) -> Dict[str, int]:
        """Retained event count per kind (sorted by kind)."""
        counts = Counter(record[0] for record in self._events)
        return dict(sorted((_LAYOUTS[code].kind, count) for code, count in counts.items()))

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
