"""Packet lifecycle spans: sim-time latency tracking for the PX datapath.

PR 4's registry answers "how many"; this module answers "how long".  A
:class:`SpanTracker` opens a span when a packet enters the gateway and
closes it when the packet (or its merged/split/bundled descendant)
leaves — the difference, in **sim time**, is the gateway residency the
paper's delayed-merging trade-off hinges on (PAPER.md §PXGW: merge
timeout vs. throughput).

Causality across the three shape-changing stages:

* **merge (N→1)** — each mergeable TCP ingress opens a span and
  enqueues ``(span, payload_bytes)`` on a per-flow byte FIFO mirroring
  ``TcpMergeEngine``'s buffers.  A spliced egress consumes its payload
  length head-first from the same FIFO; every parent whose bytes it
  carries closes (outcome ``merged``) and a finished child span of
  kind ``merged`` records the fan-in.
* **split (1→N)** — the ingress closes immediately (stage ``split``)
  and N finished ``split-segment`` children point back at it.
* **caravan (N→1→N)** — bundleable datagrams enqueue on a per-flow
  datagram FIFO; a materialized caravan consumes ``caravan_inner_count``
  entries (outcome ``bundled``) and records the batch wait from the
  first datagram's enqueue time.  The receive side closes the caravan
  span at ``caravan-open`` with N ``datagram`` children.

The tracker is deliberately dumb: as a
:class:`~repro.core.worker.WorkerObserver` it is told what the worker
did and does arithmetic.  It never touches the simulator, RNGs, packet
bytes, or scheduling, which is why attaching it cannot perturb chaos
digests (the perturbation guard in ``tests/obs`` proves it).

The **span-balance identity** — ``opened == closed + dropped + open``
— is the conservation law the chaos oracle asserts over all 56 corpus
scenarios, alongside a byte/datagram reconciliation of the FIFOs
against the live merge engines.  ``anomalies`` counts every
impossibility (closing an unknown span, consuming bytes that were
never enqueued) and must stay zero.

Latency observations are kept as exact ``value -> count`` maps and
mirrored onto fixed-bucket registry histograms at scrape time via
:meth:`Histogram.load`, so exports stay byte-deterministic and the
per-packet cost is one dict update.

A finished span is one packed ``bytes`` record (:mod:`repro.obs.codec`),
about 80 B without parents, that becomes a :class:`Span` only on read:
sid, close time and outcome, then the body a span packs when it opens
(open time, kind, stage, parent count, flow, parents).  A field the
layout cannot carry raises where the span opens or closes.
"""

from __future__ import annotations

import json
import struct
from collections import Counter, defaultdict, deque
from itertools import islice
from typing import Deque, Dict, List, Optional, Tuple

from ..core.caravan import caravan_inner_count, is_caravan
from ..core.worker import WorkerObserver
from ..packet.flow import FlowKey
from .codec import SHUT, SPAN_HEAD, Labels, flow_fields, span_body

__all__ = [
    "LATENCY_BUCKETS",
    "GATEWAY_RESIDENCY_SECONDS",
    "MERGE_WAIT_SECONDS",
    "CARAVAN_BATCH_WAIT_SECONDS",
    "PROBE_RTT_SECONDS",
    "LATENCY_METRICS",
    "Span",
    "SpanTracker",
]

#: Fixed sub-second bucket ladder for sim-time latencies.  ``LOG2_BUCKETS``
#: in :mod:`repro.obs.registry` are integer *byte* bounds; latencies need
#: a 1-2-5 ladder from 10 µs to 5 s (the merge timeout is 1 ms, link
#: delays are 1-10 ms, PLPMTUD searches take 100s of ms).
LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-5, 2e-5, 5e-5,
    1e-4, 2e-4, 5e-4,
    1e-3, 2e-3, 5e-3,
    1e-2, 2e-2, 5e-2,
    0.1, 0.2, 0.5,
    1.0, 2.0, 5.0,
)

GATEWAY_RESIDENCY_SECONDS = "px_gateway_residency_seconds"
MERGE_WAIT_SECONDS = "px_merge_wait_seconds"
CARAVAN_BATCH_WAIT_SECONDS = "px_caravan_batch_wait_seconds"
PROBE_RTT_SECONDS = "px_fpmtud_probe_rtt_seconds"

#: Every latency histogram the tracker feeds, in export order.
LATENCY_METRICS: Tuple[str, ...] = (
    CARAVAN_BATCH_WAIT_SECONDS,
    PROBE_RTT_SECONDS,
    GATEWAY_RESIDENCY_SECONDS,
    MERGE_WAIT_SECONDS,
)


class Span:
    """One packet's traversal of the gateway, in sim time.

    ``parents`` is a tuple of span ids: empty for an ingress span,
    the contributing ingress spans for a ``merged``/``caravan`` child,
    the split ingress for a ``split-segment``.  ``flow`` carries the
    packet's :class:`~repro.packet.flow.FlowKey` when the datapath
    attributed one — the hook cross-shard trace reconstruction keys on.
    """

    __slots__ = ("sid", "kind", "opened_at", "closed_at", "outcome", "parents",
                 "stage", "flow")

    def __init__(self, sid, kind, opened_at, closed_at, outcome, parents, stage,
                 flow=None):
        self.sid = sid
        self.kind = kind
        self.opened_at = opened_at
        self.closed_at = closed_at
        self.outcome = outcome
        self.parents = parents
        self.stage = stage
        self.flow = flow

    @property
    def duration(self) -> Optional[float]:
        """Sim seconds between open and close; ``None`` while open."""
        if self.closed_at is None:
            return None
        return self.closed_at - self.opened_at

    def to_dict(self) -> dict:
        """A JSON-ready, deterministic representation."""
        payload = {
            "sid": self.sid,
            "kind": self.kind,
            "opened_at": self.opened_at,
            "closed_at": self.closed_at,
            "outcome": self.outcome,
            "stage": self.stage,
            "parents": list(self.parents),
        }
        if self.flow is not None:
            payload["flow"] = str(self.flow)
        return payload


_KEYED_BODY = span_body(0)
_CODE = struct.Struct("<H")
_KIND_AT = SHUT.size + 8   # the kind code follows opened_at
_STAGE_AT = _KIND_AT + 2

#: Labels every tracker interns first, so the hot sites use constants.
_PACKET, _EGRESS, _MERGED = 1, 2, 3
_LABELS = ("packet", "egress", "merged")


class SpanTracker(WorkerObserver):
    """Opens, closes, and reconciles packet lifecycle spans.

    Span ids are sequential, so two same-seed runs produce byte-identical
    exports.  Finished spans land in a bounded ring (``capacity``); the
    counters and latency maps are exact regardless of shedding.
    """

    def __init__(self, capacity: int = 65536):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        #: Balance counters — ``opened == closed + dropped + len(open)``.
        self.opened = 0
        self.closed = 0
        self.dropped = 0
        #: Impossibilities observed (unknown sid, FIFO under-run).  The
        #: chaos oracle requires this to stay zero.
        self.anomalies = 0
        self._next_sid = 0
        # sid -> (opened_at, the record's body, packed at open)
        self._open: Dict[int, Tuple[float, bytes]] = {}
        self._done: Deque[bytes] = deque(maxlen=capacity)
        self._labels = Labels(_LABELS)
        # Per-flow FIFOs mirroring the merge engines' buffers.
        # merge: flow -> deque of [sid, bytes_left, enqueued_at]
        # caravan: flow -> deque of (sid, enqueued_at)
        self._merge_fifo: Dict[object, Deque[list]] = defaultdict(deque)
        self._caravan_fifo: Dict[object, Deque[tuple]] = defaultdict(deque)
        self._fifo_bytes = 0
        self._fifo_datagrams = 0
        #: Exact latency observations per metric: value -> count.
        self._latency: Dict[str, Dict[float, int]] = {
            name: {} for name in LATENCY_METRICS
        }
        # Spans an emitter left open: (prober, probe id) -> sid while the
        # probe is in flight, health monitor -> sid while away from HEALTHY.
        self._pending: Dict[object, int] = {}

    # ------------------------------------------------------------------
    # Worker events (repro.core.worker)
    # ------------------------------------------------------------------
    def on_packet(self, worker, now, ingress_at, packet, size, bound, key,
                  state, stage, outputs) -> None:
        # Spans open at gateway ingress, so residency includes the
        # queueing of a packet that waited out a stall.
        at = now if ingress_at is None else ingress_at
        if stage == "merge" or stage == "caravan":
            if len(outputs) != 1 or outputs[0] is not packet:
                self._fed(packet, key, at, now, outputs, stage == "merge")
                return
            stage = "passthrough"  # the engine handed it straight back
        elif stage == "split" or stage == "caravan-open":
            sid = self.sync(at, now, stage, flow=key)
            if stage == "split":
                self.derived((sid,), "split-segment", now, len(outputs), key)
            else:
                self.derived((sid,), "datagram", now, len(outputs))
            return
        elif stage == "malformed-caravan":
            self.sync_drop(at, now, "malformed-caravan", flow=key)
            return
        # One in, one out (mss, hairpin, forward, passthrough): ``sync`` inlined.
        sid = self._next_sid
        if type(key) is FlowKey:
            proto, src, sport, dst, dport = key  # unpacked: ``*key`` is slow
            self._done.append(SPAN_HEAD.pack(sid, now, _EGRESS, at, _PACKET, self._labels[stage],
                                             0, 1, proto, src, sport, dst, dport))
        else:
            self._done.append(SHUT.pack(sid, now, _EGRESS)
                              + self._body(at, "packet", (), stage, key))
        self._next_sid = sid + 1
        self.opened += 1
        self.closed += 1
        bucket = self._latency[GATEWAY_RESIDENCY_SECONDS]
        delta = now - at
        bucket[delta] = bucket.get(delta, 0) + 1

    def on_flush(self, worker, now, flushed, batch) -> None:
        for out in flushed:
            if out.is_tcp:
                self._merged(out, now)
            elif out.is_udp:
                self._caravan_out(out, now)

    def on_retire(self, worker, now) -> None:
        self.flush_fifos(now, outcome="failover")

    def on_event(self, source, now, kind, **fields) -> None:
        if kind in ("untranslated", "gateway-passthrough", "no-route"):
            at = fields["ingress_at"]
            settle = self.sync_drop if kind == "no-route" else self.sync
            settle(now if at is None else at, now, kind)
        elif kind == "pmtud-probe":
            self._pending[source, fields["probe_id"]] = self.open(now, kind="probe")
        elif kind == "pmtud-report" or kind == "pmtud-timeout":
            sid = self._pending.pop((source, fields["probe_id"]), None)
            if sid is None:
                return  # subscribed after the probe left
            if kind == "pmtud-timeout":
                self.drop(sid, now, "timeout")
            else:
                self.close(sid, now, outcome="report")
                self.observe(PROBE_RTT_SECONDS, fields["elapsed"])
        elif kind == "pmtud-report-rejected":
            # A balanced anomaly span: visible in the span stream (and
            # the latency timeline) without leaving anything open.
            self.drop(self.open(now, kind="rejected-report"), now, fields["reason"])
        elif kind == "health-transition":
            # One span covers the whole away-from-HEALTHY excursion
            # (DEGRADED→BYPASS deepens it; only recovery closes it).
            from ..resilience.health import HealthState  # loaded: it emitted this

            if fields["from_state"] == HealthState.HEALTHY:
                self._pending[source] = self.open(now, kind="health-excursion")
            elif fields["to_state"] == HealthState.HEALTHY and source in self._pending:
                self.close(self._pending.pop(source), now, outcome="recovered")

    def _fed(self, packet, key, at, now, outputs, tcp: bool) -> None:
        """Mirror one merge-engine ``feed`` call onto that engine's FIFO.

        ``out is packet`` in the outputs ⟺ the packet passed through
        unbuffered (non-mergeable, flag-bearing, or empty); otherwise it
        entered the per-flow FIFO.  A single-datagram caravan flush
        materializes as the *original* buffered packet object, so the
        identity test is sound for both engines.  Enqueue before consume:
        spliced outputs drain old bytes head-first by exact count, so a
        flush-then-restart of the same flow stays balanced.
        """
        for out in outputs:
            if out is packet:
                break
        else:
            # ``open`` / ``merge_enqueue`` inlined: most segments end here.
            if type(key) is FlowKey:
                proto, src, sport, dst, dport = key
                body = _KEYED_BODY.pack(at, _PACKET, 0, 0, 1, proto, src, sport, dst, dport)
            else:
                body = self._body(at, "packet", (), None, key)
            sid = self._next_sid
            self._next_sid = sid + 1
            self.opened += 1
            self._open[sid] = (at, body)
            if tcp:
                nbytes = len(packet.payload)
                self._merge_fifo[key].append([sid, nbytes, now])
                self._fifo_bytes += nbytes
            else:
                self.caravan_enqueue(key, sid, now)
        settle = self._merged if tcp else self._caravan_out
        for out in outputs:
            if out is packet:
                self.sync(at, now, "passthrough", flow=key)
            else:
                settle(out, now)

    def _merged(self, out, now: float) -> None:
        """Settle the FIFO spans whose bytes a merge-engine output carries."""
        flow = out.flow_key()
        self.derived(self.merge_consume(flow, len(out.payload), now),
                     "merged", now, flow=flow)

    def _caravan_out(self, out, now: float) -> None:
        """Settle the FIFO spans a materialized caravan/flush carries."""
        bundled = is_caravan(out)
        flow = out.flow_key()
        parents = self.caravan_consume(
            flow, caravan_inner_count(out), now,
            outcome="bundled" if bundled else "flushed",
        )
        first_at = out.meta.get("caravan_first_at")
        if first_at is not None:
            self.observe(CARAVAN_BATCH_WAIT_SECONDS, now - first_at)
        if bundled:
            self.derived(parents, "caravan", now, flow=flow)

    # ------------------------------------------------------------------
    # Core open/close API
    # ------------------------------------------------------------------
    def open(self, opened_at: float, kind: str = "packet",
             parents: Tuple[int, ...] = (), stage: Optional[str] = None,
             flow=None) -> int:
        """Open a span; returns its id for a later close/drop."""
        body = self._body(opened_at, kind, parents, stage, flow)
        sid = self._next_sid
        self._next_sid = sid + 1
        self.opened += 1
        self._open[sid] = (opened_at, body)
        return sid

    def _finish(self, sid: int, at: float, outcome: str) -> Optional[tuple]:
        """Move an open span to the ring; returns what ``open`` stored,
        or ``None`` (an anomaly) if *sid* is not open."""
        entry = self._open.get(sid)
        if entry is None:
            self.anomalies += 1
        else:
            self._done.append(SHUT.pack(sid, at, self._labels[outcome]) + entry[1])
            del self._open[sid]
        return entry

    def close(self, sid: int, closed_at: float, outcome: str = "egress") -> None:
        """Close an open span with a terminal outcome."""
        if self._finish(sid, closed_at, outcome) is not None:
            self.closed += 1

    def drop(self, sid: int, at: float, reason: str) -> None:
        """Close an open span as dropped (counts in ``dropped``)."""
        if self._finish(sid, at, reason) is not None:
            self.dropped += 1

    def sync(self, opened_at: float, closed_at: float, stage: str,
             kind: str = "packet", flow=None) -> int:
        """Fast path: a packet that entered and left in one call.

        Creates the span already finished (no open-dict round trip) and
        records its gateway residency.
        """
        sid = self._next_sid
        self._done.append(SHUT.pack(sid, closed_at, _EGRESS)
                          + self._body(opened_at, kind, (), stage, flow))
        self._next_sid = sid + 1
        self.opened += 1
        self.closed += 1
        bucket = self._latency[GATEWAY_RESIDENCY_SECONDS]
        delta = closed_at - opened_at
        bucket[delta] = bucket.get(delta, 0) + 1
        return sid

    def sync_drop(self, opened_at: float, at: float, reason: str, flow=None) -> int:
        """Fast path: a packet dropped in the same call it arrived in."""
        sid = self._next_sid
        self._done.append(SHUT.pack(sid, at, self._labels[reason])
                          + self._body(opened_at, "packet", (), "drop", flow))
        self._next_sid = sid + 1
        self.opened += 1
        self.dropped += 1
        return sid

    def derived(self, parents: Tuple[int, ...], kind: str, at: float,
                count: int = 1, flow=None) -> None:
        """Record *count* finished child spans produced at *at*.

        Children are born closed: a merged segment / caravan / split
        segment exists only at the instant the engine emits it, so the
        interesting latency lives on the parents, not here.
        """
        body = self._body(at, kind, parents, None, flow)
        first = self._next_sid
        self._next_sid = first + count
        self.opened += count
        self.closed += count
        # One body, a sid in front of it per child.
        self._done.extend(SHUT.pack(sid, at, _EGRESS) + body
                          for sid in range(first, first + count))

    # ------------------------------------------------------------------
    # Record codec
    # ------------------------------------------------------------------
    def _body(self, opened_at, kind, parents, stage, flow) -> bytes:
        """What a span's record holds past its ``SHUT``; raises where the
        layout cannot carry a field."""
        labels = self._labels
        tag, proto, src, sport, dst, dport = flow_fields(flow)  # two ``*`` in one call are slow
        return span_body(len(parents)).pack(opened_at, labels[kind], labels[stage], len(parents),
                                            tag, proto, src, sport, dst, dport, *parents)

    def _span(self, record: bytes) -> Span:
        """Materialise one finished-span record."""
        sid, closed_at, outcome, opened_at, kind, stage, count, tag, *key = \
            SPAN_HEAD.unpack_from(record)
        parents = struct.unpack_from(f"<{count}q", record, SPAN_HEAD.size) if count else ()
        names = self._labels.names
        return Span(sid, names[kind], opened_at, closed_at, names[outcome],
                    parents, names[stage], FlowKey(*key) if tag else None)

    # ------------------------------------------------------------------
    # Merge (byte) FIFO — mirrors TcpMergeEngine buffers
    # ------------------------------------------------------------------
    def merge_enqueue(self, flow, sid: int, nbytes: int, at: float) -> None:
        """A span's payload entered the merge buffer for *flow*."""
        self._merge_fifo[flow].append([sid, nbytes, at])
        self._fifo_bytes += nbytes

    def merge_consume(self, flow, nbytes: int, at: float) -> Tuple[int, ...]:
        """A spliced segment of *nbytes* left the buffer for *flow*.

        Consumes head-first (the engines ship bytes FIFO per flow) and
        returns the parent span ids whose bytes the segment carries.
        Fully drained parents close with outcome ``merged`` and record
        both their merge wait and their gateway residency.
        """
        fifo = self._merge_fifo.get(flow)
        parents: List[int] = []
        wait = self._latency[MERGE_WAIT_SECONDS]
        res = self._latency[GATEWAY_RESIDENCY_SECONDS]
        while nbytes > 0:
            if not fifo:
                self.anomalies += 1
                break
            head = fifo[0]
            take = head[1] if head[1] <= nbytes else nbytes
            head[1] -= take
            nbytes -= take
            self._fifo_bytes -= take
            parents.append(head[0])
            if head[1] == 0:
                fifo.popleft()
                entry = self._open.pop(head[0], None)
                if entry is None:
                    self.anomalies += 1
                else:
                    self.closed += 1
                    self._done.append(SHUT.pack(head[0], at, _MERGED) + entry[1])
                    delta = at - head[2]
                    wait[delta] = wait.get(delta, 0) + 1
                    delta = at - entry[0]
                    res[delta] = res.get(delta, 0) + 1
        if fifo is not None and not fifo:
            del self._merge_fifo[flow]
        return tuple(parents)

    # ------------------------------------------------------------------
    # Caravan (datagram) FIFO — mirrors CaravanMergeEngine contexts
    # ------------------------------------------------------------------
    def caravan_enqueue(self, flow, sid: int, at: float) -> None:
        """A datagram's span entered the caravan context for *flow*."""
        self._caravan_fifo[flow].append((sid, at))
        self._fifo_datagrams += 1

    def caravan_consume(self, flow, count: int, at: float,
                        outcome: str = "bundled") -> Tuple[int, ...]:
        """*count* buffered datagrams left the context for *flow*."""
        fifo = self._caravan_fifo.get(flow)
        parents: List[int] = []
        for _ in range(count):
            if not fifo:
                self.anomalies += 1
                break
            sid, _enqueued_at = fifo.popleft()
            self._fifo_datagrams -= 1
            parents.append(sid)
            entry = self._finish(sid, at, outcome)
            if entry is not None:
                self.closed += 1
                res = self._latency[GATEWAY_RESIDENCY_SECONDS]
                delta = at - entry[0]
                res[delta] = res.get(delta, 0) + 1
        if fifo is not None and not fifo:
            del self._caravan_fifo[flow]
        return tuple(parents)

    def flush_fifos(self, at: float, outcome: str = "failover") -> int:
        """Close every FIFO-resident span (worker retired mid-merge).

        On failover the old worker's pending bytes are re-emitted from
        the checkpoint through :meth:`PXGateway.forward`, bypassing the
        worker — so their ingress spans must be settled here.  Returns
        the number of spans closed.
        """
        resident = [entry[0]
                    for fifos in (self._merge_fifo, self._caravan_fifo)
                    for fifo in fifos.values() for entry in fifo]
        for sid in resident:
            self.close(sid, at, outcome)
        self._merge_fifo.clear()
        self._caravan_fifo.clear()
        self._fifo_bytes = 0
        self._fifo_datagrams = 0
        return len(resident)

    # ------------------------------------------------------------------
    # Latency observations
    # ------------------------------------------------------------------
    def observe(self, metric: str, value: float) -> None:
        """Record one latency observation for a known metric."""
        bucket = self._latency[metric]
        bucket[value] = bucket.get(value, 0) + 1

    def latency_values(self, metric: str) -> Dict[float, int]:
        """A copy of the exact ``value -> count`` map for *metric*."""
        return dict(self._latency[metric])

    def latency_count(self, metric: str) -> int:
        """Total observations recorded for *metric*."""
        return sum(self._latency[metric].values())

    def latency_median(self, metric: str) -> Optional[float]:
        """Median of the raw observations (lower of the two middles)."""
        values = self._latency[metric]
        total = sum(values.values())
        if total == 0:
            return None
        midpoint = (total - 1) // 2
        seen = 0
        for value in sorted(values):
            seen += values[value]
            if seen > midpoint:
                return value
        return None  # pragma: no cover - unreachable

    # ------------------------------------------------------------------
    # Reconciliation and export
    # ------------------------------------------------------------------
    def open_count(self) -> int:
        """Spans currently open (in flight or buffered in an engine)."""
        return len(self._open)

    def pending_merge_bytes(self) -> int:
        """Bytes the FIFOs believe the TCP merge engine is holding."""
        return self._fifo_bytes

    def pending_caravan_datagrams(self) -> int:
        """Datagrams the FIFOs believe the caravan engine is holding."""
        return self._fifo_datagrams

    @property
    def shed(self) -> int:
        """Finished spans evicted from the bounded ring."""
        return self.closed + self.dropped - len(self._done)

    def balance(self) -> dict:
        """The conservation-law view the chaos oracle asserts."""
        return {
            "opened": self.opened,
            "closed": self.closed,
            "dropped": self.dropped,
            "open": len(self._open),
        }

    @property
    def balanced(self) -> bool:
        """Whether the span-balance identity holds right now."""
        return self.opened == self.closed + self.dropped + len(self._open)

    def finished(self, kind: Optional[str] = None) -> List[Span]:
        """Retained finished spans, optionally filtered by kind."""
        if kind is None:
            return [self._span(record) for record in self._done]
        code = self._labels.get(kind)
        code = None if code is None else _CODE.pack(code)
        return [self._span(record) for record in self._done
                if record[_KIND_AT:_KIND_AT + 2] == code]

    def kinds(self) -> Dict[str, int]:
        """Retained finished-span counts per kind, sorted by name."""
        return dict(sorted(self._count(_KIND_AT).items()))

    def stages(self) -> Dict[str, int]:
        """Retained finished-span counts per stage label."""
        stages = self._count(_STAGE_AT)
        stages.pop(None, None)  # children carry no stage
        return dict(sorted(stages.items()))

    def _count(self, at: int) -> Dict[Optional[str], int]:
        """Retained spans per label, the label's code read at *at*."""
        names = self._labels.names
        return {names[_CODE.unpack(code)[0]]: count for code, count
                in Counter(record[at:at + 2] for record in self._done).items()}

    def _dicts(self, limit: Optional[int]) -> List[dict]:
        """``to_dict`` of the retained spans, or of the newest *limit*
        (0: none; a negative limit is a ``ValueError``)."""
        start = 0
        if limit is not None:
            if limit < 0:
                raise ValueError("limit must be non-negative")
            start = max(len(self._done) - limit, 0)
        return [self._span(record).to_dict()
                for record in islice(self._done, start, None)]

    def to_json(self, limit: Optional[int] = None, indent: Optional[int] = None) -> str:
        """Byte-deterministic JSON export (balance, latency, spans)."""
        payload = {
            "balance": self.balance(),
            "anomalies": self.anomalies,
            "shed": self.shed,
            "kinds": self.kinds(),
            "stages": self.stages(),
            "latency": {
                name: {
                    "count": sum(values.values()),
                    "sum": sum(v * n for v, n in sorted(values.items())),
                }
                for name, values in sorted(self._latency.items())
            },
            "spans": self._dicts(limit),
        }
        return json.dumps(payload, sort_keys=True, indent=indent,
                          separators=(",", ":") if indent is None else None)

    def to_jsonl(self, limit: Optional[int] = None) -> str:
        """One finished span per line — greppable, streamable."""
        return "\n".join(
            json.dumps(span, sort_keys=True, separators=(",", ":"))
            for span in self._dicts(limit)
        )
