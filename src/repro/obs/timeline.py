"""In-sim telemetry timeline: periodic scrapes as a deterministic series.

:class:`TelemetryTimeline` schedules itself on the simulator every
``interval`` sim-seconds, snapshots the registry (running the
collectors), and records the **windowed deltas** of every series that
moved; :meth:`TelemetryTimeline.values` reads one series back as a
level per tick.  Because the scrapes happen in sim time, two same-seed
runs produce byte-identical timelines.

The timeline is also the alert engine's clock: when an
:class:`~repro.obs.alerts.AlertEngine` is attached, every tick feeds it
the fresh snapshot + deltas so PENDING→FIRING→RESOLVED transitions are
stamped with exact sim timestamps.

Safety: ticks only *read* component state (collectors are pull-model
and idempotent) and consume simulator event slots without touching any
RNG, so attaching a timeline cannot change packet behavior — the chaos
perturbation guard runs all 56 corpus scenarios with a timeline
attached and demands byte-identical digests.  Every world in this repo
runs under an explicit horizon (``topo.run(until=...)``), so the
self-rescheduling tick cannot prolong a run.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .registry import MetricsRegistry

__all__ = ["TelemetryTimeline"]


class TelemetryTimeline:
    """Periodic in-sim registry scrapes with windowed deltas.

    Parameters
    ----------
    sim:
        The :class:`repro.sim.Simulator` driving the world.
    registry:
        The :class:`MetricsRegistry` to scrape.
    interval:
        Sim-seconds between scrapes.
    alerts:
        Optional :class:`repro.obs.alerts.AlertEngine` evaluated at
        every tick with the fresh snapshot and window deltas.
    max_samples:
        Bound on retained samples; the oldest are shed (counted in
        ``shed``) so long-horizon worlds stay bounded.
    """

    def __init__(self, sim, registry: MetricsRegistry, interval: float = 0.05,
                 alerts=None, max_samples: Optional[int] = None):
        if interval <= 0:
            raise ValueError("interval must be positive")
        if max_samples is not None and max_samples <= 0:
            raise ValueError("max_samples must be positive")
        self.sim = sim
        self.registry = registry
        self.interval = interval
        self.alerts = alerts
        self.max_samples = max_samples
        self.samples: List[dict] = []
        self.ticks = 0
        self.shed = 0
        self.started_at: Optional[float] = None
        self._baseline: Optional[Dict[str, float]] = None
        self._handle = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "TelemetryTimeline":
        """Take the baseline snapshot and schedule the first tick."""
        if self._handle is not None:
            return self  # already running
        self.started_at = self.sim.now
        self._baseline = self.registry.snapshot()
        self._handle = self.sim.schedule(self.interval, self._tick)
        return self

    def stop(self) -> None:
        """Cancel the pending tick (recorded samples are kept)."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def running(self) -> bool:
        """Whether a tick is currently scheduled."""
        return self._handle is not None

    def _tick(self) -> None:
        now = self.sim.now
        snapshot = self.registry.snapshot()
        deltas = MetricsRegistry.diff(self._baseline, snapshot)
        self.ticks += 1
        self.samples.append({"time": now, "deltas": deltas})
        if self.max_samples is not None and len(self.samples) > self.max_samples:
            self.samples.pop(0)
            self.shed += 1
        self._baseline = snapshot
        if self.alerts is not None:
            self.alerts.evaluate(now, snapshot, deltas, self.interval)
        self._handle = self.sim.schedule(self.interval, self._tick)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, float]:
        """Sum of deltas per series across all retained samples."""
        out: Dict[str, float] = {}
        for sample in self.samples:
            for key, value in sample["deltas"].items():
                out[key] = out.get(key, 0) + value
        return dict(sorted(out.items()))

    def values(self, key: str) -> List[tuple]:
        """``(time, value)`` of one series id at every retained tick,
        rebuilt backwards from the latest snapshot through the stored
        deltas (so shedding loses nothing and the last tick is exact)."""
        value = self._baseline.get(key, 0) if self._baseline else 0
        out = []
        for sample in reversed(self.samples):
            out.append((sample["time"], value))
            value -= sample["deltas"].get(key, 0)
        return out[::-1]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def _header(self) -> dict:
        return {
            "interval": self.interval,
            "started_at": self.started_at,
            "ticks": self.ticks,
            "shed": self.shed,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """Byte-deterministic JSON: header + the retained samples."""
        payload = dict(self._header())
        payload["samples"] = self.samples
        return json.dumps(payload, sort_keys=True, indent=indent,
                          separators=(",", ":") if indent is None else None)

    def to_jsonl(self) -> str:
        """Streamable export: one header line, then one line per tick."""
        lines = [json.dumps({"timeline": self._header()}, sort_keys=True,
                            separators=(",", ":"))]
        lines.extend(
            json.dumps(sample, sort_keys=True, separators=(",", ":"))
            for sample in self.samples
        )
        return "\n".join(lines)
