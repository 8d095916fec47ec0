"""Black-box flight recorder: an always-on, bounded, replayable record.

The recorder answers *what did this world (or this fleet shard) see in
the seconds before the alert fired?*  It follows the obs layer's "pull,
not push" rule — the recorder holds **references** to the instruments a
world already carries (span tracker, flow tracer, telemetry timeline,
alert engine) and only materialises a merged, time-sorted window at
dump time.  Attaching one therefore adds zero per-packet work, which is
why the 56 chaos digests stay byte-identical with a recorder on board
(see ``tests/obs/test_perturbation_guard.py``).

Two small push surfaces exist for hosts that have no timeline of their
own (fleet shards) or that want lifecycle marks in the record:

* :meth:`FlightRecorder.note` — bounded ring of lifecycle marks
  (shard-loss, checkpoint sweeps);
* :meth:`FlightRecorder.add_sample` — bounded ring of windowed metric
  deltas, mirroring what :class:`~repro.obs.timeline.TelemetryTimeline`
  would have scraped.

Everything is stamped in sim time and serialises with sorted keys and
compact separators, so two same-seed processes dump byte-identical
JSON — the property the CI ``incident`` job diffs across processes.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Dict, List, Optional

__all__ = ["FlightRecorder"]

# Fixed source order used when merging entries that share a timestamp;
# the sort below is stable, so this order is part of the byte contract.
_SOURCE_ORDER = ("mark", "metrics", "alert", "trace", "span")


class FlightRecorder:
    """Bounded black-box ring for one world or one fleet shard.

    ``capacity`` bounds the *pushed* rings (marks and samples); the
    pulled sources are already bounded by their own rings (the span
    tracker's ring of settlement entries, bounded by spans; the flow
    tracer's deque; the timeline's ``max_samples``).
    """

    def __init__(self, name: str = "world", capacity: int = 4096) -> None:
        self.name = name
        self.capacity = int(capacity)
        self._marks: deque = deque(maxlen=self.capacity)
        self._samples: deque = deque(maxlen=self.capacity)
        self.marks_recorded = 0
        self.samples_recorded = 0
        self._spans = None
        self._tracer = None
        self._timeline = None
        self._alerts = None

    # ------------------------------------------------------------------
    # wiring (pull sources)
    # ------------------------------------------------------------------

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

    # ------------------------------------------------------------------
    # push surfaces (lifecycle marks, shard-local metric windows)
    # ------------------------------------------------------------------

    def note(self, time: float, kind: str, **fields: Any) -> None:
        """Record a lifecycle mark (shard-loss, checkpoint sweep, ...)."""
        mark = {"time": time, "mark": kind}
        mark.update(fields)
        self._marks.append(mark)
        self.marks_recorded += 1

    def add_sample(self, time: float, deltas: Dict[str, float]) -> None:
        """Record a windowed metric-delta sample (timeline-less hosts)."""
        self._samples.append({"time": time, "deltas": dict(deltas)})
        self.samples_recorded += 1

    # ------------------------------------------------------------------
    # dump
    # ------------------------------------------------------------------

    def window(
        self,
        since: Optional[float] = None,
        until: Optional[float] = None,
        kinds=None,
    ) -> List[Dict[str, Any]]:
        """Merged, time-sorted entries within ``[since, until]``.

        Entries are collected per source in a fixed order and merged
        with a stable sort on ``time``, so the output is a pure
        function of sim state — byte-identical across same-seed runs.
        """
        entries: List[Dict[str, Any]] = []
        for mark in self._marks:
            entry = {"kind": "mark"}
            entry.update(mark)
            entries.append(entry)
        timeline = self._timeline.samples if self._timeline is not None else []
        for sample in [*self._samples, *timeline]:
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
                closed = span.closed_at
                entries.append(
                    {"time": closed, "kind": "span", "span": span.to_dict()}
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
        tally: Dict[str, int] = {}
        for entry in self.window(since=since, until=until):
            tally[entry["kind"]] = tally.get(entry["kind"], 0) + 1
        return tally

    def to_dict(
        self,
        since: Optional[float] = None,
        until: Optional[float] = None,
        kinds=None,
    ) -> Dict[str, Any]:
        entries = self.window(since=since, until=until, kinds=kinds)
        counts: Dict[str, int] = {}
        for entry in entries:
            counts[entry["kind"]] = counts.get(entry["kind"], 0) + 1
        return {
            "schema": "repro-flight/1",
            "name": self.name,
            "capacity": self.capacity,
            "window": {"since": since, "until": until},
            "counts": counts,
            "shed": {
                "marks": self.marks_recorded - len(self._marks),
                "samples": self.samples_recorded - len(self._samples),
            },
            "sources": self.sources,
            "entries": entries,
        }

    def to_json(
        self,
        since: Optional[float] = None,
        until: Optional[float] = None,
        indent: Optional[int] = None,
    ) -> str:
        payload = self.to_dict(since=since, until=until)
        if indent is None:
            return json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return json.dumps(payload, sort_keys=True, indent=indent)
