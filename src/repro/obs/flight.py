"""Black-box flight recorder: one merged, replayable record of a world.

The recorder answers *what did this world see in the seconds before
the alert fired?*  It follows the obs layer's "pull, not push" rule —
the recorder holds **references** to the instruments a world already
carries (span tracker, flow tracer, telemetry timeline, alert engine)
and only materialises a merged, time-sorted window at dump time.
Attaching one therefore adds zero per-packet work.  Every source is
already bounded by its own ring (the span tracker's settlement entries,
the flow tracer's deque, the timeline's ``max_samples``).

Everything is stamped in sim time and serialises with sorted keys and
compact separators, so two processes dump byte-identical JSON.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

__all__ = ["FlightRecorder"]

# Fixed source order used when merging entries that share a timestamp;
# the sort below is stable, so this order is part of the byte contract.
_SOURCE_ORDER = ("metrics", "alert", "trace", "span")


class FlightRecorder:
    """A merged, time-sorted view over one world's instruments."""

    def __init__(self, name: str = "world") -> None:
        self.name = name
        self._spans = None
        self._tracer = None
        self._timeline = None
        self._alerts = None

    def wire(self, spans=None, tracer=None, timeline=None, alerts=None):
        """Register pull sources; returns ``self`` for chaining."""
        if spans is not None:
            self._spans = spans
        if tracer is not None:
            self._tracer = tracer
        if timeline is not None:
            self._timeline = timeline
        if alerts is not None:
            self._alerts = alerts
        return self

    @property
    def sources(self) -> Dict[str, bool]:
        return {
            "spans": self._spans is not None,
            "tracer": self._tracer is not None,
            "timeline": self._timeline is not None,
            "alerts": self._alerts is not None,
        }

    def window(
        self,
        since: Optional[float] = None,
        until: Optional[float] = None,
        kinds=None,
    ) -> List[Dict[str, Any]]:
        """Merged, time-sorted entries within ``[since, until]``.

        Entries are collected per source in a fixed order and merged
        with a stable sort on ``time``, so the output is a pure
        function of sim state — byte-identical across runs.
        """
        entries: List[Dict[str, Any]] = []
        if self._timeline is not None:
            for sample in self._timeline.samples:
                entries.append(
                    {"time": sample["time"], "kind": "metrics",
                     "deltas": sample["deltas"]}
                )
        if self._alerts is not None:
            for transition in self._alerts.transitions:
                entries.append(
                    {"time": transition["time"], "kind": "alert",
                     "rule": transition["rule"],
                     "from": transition["from"], "to": transition["to"],
                     "value": transition["value"]}
                )
        if self._tracer is not None:
            for event in self._tracer.events():
                entries.append(
                    {"time": event["time"], "kind": "trace", "event": event}
                )
        if self._spans is not None:
            for span in self._spans.finished():
                entries.append(
                    {"time": span.closed_at, "kind": "span", "span": span.to_dict()}
                )
        if since is not None:
            entries = [e for e in entries if e["time"] >= since]
        if until is not None:
            entries = [e for e in entries if e["time"] <= until]
        if kinds is not None:
            wanted = set(kinds)
            entries = [e for e in entries if e["kind"] in wanted]
        entries.sort(key=lambda e: (e["time"], _SOURCE_ORDER.index(e["kind"])))
        return entries

    def counts(
        self, since: Optional[float] = None, until: Optional[float] = None
    ) -> Dict[str, int]:
        return _tally(self.window(since=since, until=until))

    def to_dict(
        self,
        since: Optional[float] = None,
        until: Optional[float] = None,
        kinds=None,
    ) -> Dict[str, Any]:
        entries = self.window(since=since, until=until, kinds=kinds)
        return {
            "schema": "repro-flight/1",
            "name": self.name,
            "window": {"since": since, "until": until},
            "counts": _tally(entries),
            "sources": self.sources,
            "entries": entries,
        }

    def to_json(
        self, since: Optional[float] = None, until: Optional[float] = None
    ) -> str:
        """The compact, key-sorted JSON of :meth:`to_dict`."""
        return json.dumps(self.to_dict(since=since, until=until),
                          sort_keys=True, separators=(",", ":"))


def _tally(entries: List[Dict[str, Any]]) -> Dict[str, int]:
    """Entries per kind."""
    tally: Dict[str, int] = {}
    for entry in entries:
        tally[entry["kind"]] = tally.get(entry["kind"], 0) + 1
    return tally
