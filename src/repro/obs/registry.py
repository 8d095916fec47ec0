"""The process-wide metrics registry: counters, gauges, histograms.

Prometheus-style *pull* model: the datapath never touches the registry
on its per-packet fast path.  Instead, instrumented components register
**collectors** — callables that, at scrape time, read the component's
live ad-hoc counters (``GatewayStats``, ``HealthMonitor`` streaks, NIC
ring occupancy, …) and publish them as registry series.  A scrape is
therefore free until somebody asks for one, and attaching a registry to
a running world cannot perturb its behaviour or its chaos digests.

Determinism rules (the chaos corpus and the CI determinism guard rely
on these):

* every value is keyed on **simulation time**, never wall clock;
* series render in sorted ``(name, labels)`` order, so two same-seed
  runs produce byte-identical ``to_prometheus_text()`` output;
* histogram buckets are **fixed log2 bounds** chosen at construction,
  never adapted to data.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LOG2_BUCKETS",
    "default_registry",
]

#: Default histogram bounds: powers of two from 1 B to 128 KiB, which
#: brackets every packet/buffer size the datapath produces (an iMTU
#: caravan tops out below 2**14; merge backlogs below 2**17).
LOG2_BUCKETS: Tuple[int, ...] = tuple(1 << exp for exp in range(18))

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus text format expects."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        '{}="{}"'.format(key, value.replace("\\", r"\\").replace('"', r"\""))
        for key, value in labels
    )
    return "{" + inner + "}"


class Counter:
    """A monotonically non-decreasing count (events, packets, bytes)."""

    kind = "counter"

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add *amount* (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount

    def set_total(self, value: float) -> None:
        """Pull-model update: publish a component's live running total.

        Collectors own the underlying counter; the registry only mirrors
        it, so (unlike :meth:`inc`) the new total replaces the old one.
        """
        if value < 0:
            raise ValueError(f"counter {self.name} total cannot be negative")
        self.value = value

    def samples(self) -> List[Tuple[str, Tuple[Tuple[str, str], ...], float]]:
        return [(self.name, self.labels, self.value)]


class Gauge:
    """An instantaneous value that may go up and down (depth, mode)."""

    kind = "gauge"

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def samples(self) -> List[Tuple[str, Tuple[Tuple[str, str], ...], float]]:
        return [(self.name, self.labels, self.value)]


class Histogram:
    """A fixed-bucket (log2 by default) distribution of observed values."""

    kind = "histogram"

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "sum", "count")

    def __init__(
        self,
        name: str,
        labels: Tuple[Tuple[str, str], ...] = (),
        bounds: Optional[Iterable[float]] = None,
    ):
        self.name = name
        self.labels = labels
        chosen = tuple(bounds) if bounds is not None else LOG2_BUCKETS
        if not chosen or list(chosen) != sorted(chosen):
            raise ValueError("histogram bounds must be a sorted non-empty sequence")
        self.bounds: Tuple[float, ...] = chosen
        self.bucket_counts: List[int] = [0] * (len(chosen) + 1)  # + overflow
        self.sum: float = 0
        self.count: int = 0

    def observe(self, value: float, weight: int = 1) -> None:
        """Record *value* (*weight* times) into its bucket."""
        index = len(self.bounds)
        for position, bound in enumerate(self.bounds):
            if value <= bound:
                index = position
                break
        self.bucket_counts[index] += weight
        self.sum += value * weight
        self.count += weight

    def load(self, value_counts: Dict[float, int]) -> None:
        """Pull-model update: replace contents from a value→count map.

        Used by collectors mirroring an existing histogram dict (e.g.
        ``GatewayStats.inbound_size_histogram``) idempotently — a second
        scrape must not double-count.
        """
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.sum = 0
        self.count = 0
        for value, weight in value_counts.items():
            self.observe(value, weight)

    def samples(self) -> List[Tuple[str, Tuple[Tuple[str, str], ...], float]]:
        out: List[Tuple[str, Tuple[Tuple[str, str], ...], float]] = []
        cumulative = 0
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            cumulative += bucket
            out.append(
                (
                    self.name + "_bucket",
                    self.labels + (("le", _format_value(bound)),),
                    cumulative,
                )
            )
        cumulative += self.bucket_counts[-1]
        out.append((self.name + "_bucket", self.labels + (("le", "+Inf"),), cumulative))
        out.append((self.name + "_sum", self.labels, self.sum))
        out.append((self.name + "_count", self.labels, cumulative))
        return out


_METRIC_TYPES = {cls.kind: cls for cls in (Counter, Gauge, Histogram)}


class MetricsRegistry:
    """A named collection of metric series plus their collectors.

    One registry per observed world; :func:`default_registry` offers a
    process-wide instance for code that does not thread one through.
    """

    def __init__(self):
        #: family name -> (kind, help text)
        self._families: Dict[str, Tuple[str, str]] = {}
        #: (name, labels) -> instrument
        self._series: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], object] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []

    # ------------------------------------------------------------------
    # Series creation (get-or-create, idempotent per (name, labels))
    # ------------------------------------------------------------------
    def _instrument(self, kind: str, name: str, help: str, labels: Dict[str, str],
                    **extra):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        family = self._families.get(name)
        if family is None:
            self._families[name] = (kind, help)
        elif family[0] != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {family[0]}, not a {kind}"
            )
        elif help and not family[1]:
            self._families[name] = (kind, help)
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        series = self._series.get(key)
        if series is None:
            series = _METRIC_TYPES[kind](name, key[1], **extra)
            self._series[key] = series
        return series

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        """Get or create the counter series ``name{labels}``."""
        return self._instrument("counter", name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        """Get or create the gauge series ``name{labels}``."""
        return self._instrument("gauge", name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        bounds: Optional[Iterable[float]] = None,
        **labels: str,
    ) -> Histogram:
        """Get or create the histogram series ``name{labels}``."""
        return self._instrument("histogram", name, help, labels, bounds=bounds)

    # ------------------------------------------------------------------
    # Collectors (the pull model)
    # ------------------------------------------------------------------
    def register_collector(self, collector: Callable[["MetricsRegistry"], None]) -> None:
        """Add a scrape-time callback that publishes live component state."""
        self._collectors.append(collector)

    def collect(self) -> None:
        """Run every registered collector (a "scrape")."""
        for collector in self._collectors:
            collector(self)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def _sorted_series(self):
        return sorted(self._series.items(), key=lambda item: item[0])

    def series_count(self) -> int:
        """Number of distinct (name, labels) series registered."""
        return len(self._series)

    def to_prometheus_text(self, collect: bool = True) -> str:
        """The registry in Prometheus text exposition format.

        Output is fully sorted, so identical registry contents render
        byte-identically — the determinism guard diffs this string.
        """
        if collect:
            self.collect()
        by_family: Dict[str, List[object]] = {}
        for (name, _labels), series in self._sorted_series():
            by_family.setdefault(name, []).append(series)
        lines: List[str] = []
        for name in sorted(by_family):
            kind, help = self._families[name]
            if help:
                lines.append(f"# HELP {name} {help}")
            lines.append(f"# TYPE {name} {kind}")
            for series in by_family[name]:
                for sample_name, labels, value in series.samples():
                    lines.append(
                        f"{sample_name}{_format_labels(labels)} {_format_value(value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self, collect: bool = True) -> Dict[str, object]:
        """A JSON-friendly dump: one entry per series, sorted."""
        if collect:
            self.collect()
        out: List[Dict[str, object]] = []
        for (name, labels), series in self._sorted_series():
            entry: Dict[str, object] = {
                "name": name,
                "type": series.kind,
                "labels": dict(labels),
            }
            if isinstance(series, Histogram):
                entry["buckets"] = {
                    _format_value(bound): count
                    for bound, count in zip(series.bounds, series.bucket_counts)
                }
                entry["overflow"] = series.bucket_counts[-1]
                entry["sum"] = series.sum
                entry["count"] = series.count
            else:
                entry["value"] = series.value
            out.append(entry)
        return {"series": out}

    # ------------------------------------------------------------------
    # Snapshot / diff (the chaos-oracle hook)
    # ------------------------------------------------------------------
    def snapshot(self, collect: bool = True) -> Dict[str, float]:
        """A flat ``series-id -> value`` map of the current registry."""
        if collect:
            self.collect()
        flat: Dict[str, float] = {}
        for (_name, _labels), series in self._sorted_series():
            for sample_name, labels, value in series.samples():
                flat[sample_name + _format_labels(labels)] = value
        return flat

    @staticmethod
    def diff(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
        """Per-series deltas between two :meth:`snapshot` results.

        Series absent on one side diff against zero, so a chaos run
        can report exactly what it moved.
        """
        deltas: Dict[str, float] = {}
        for key in sorted(set(before) | set(after)):
            delta = after.get(key, 0) - before.get(key, 0)
            if delta:
                deltas[key] = delta
        return deltas


_DEFAULT: Optional[MetricsRegistry] = None


def default_registry() -> MetricsRegistry:
    """The process-wide registry (created on first use)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = MetricsRegistry()
    return _DEFAULT
