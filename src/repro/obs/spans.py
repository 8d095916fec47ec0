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

Everything one worker call settles is one packed ``bytes`` entry in the
ring (:mod:`repro.obs.codec`): a merged or caravan output's closed
parents and its child, a split's or caravan-open's ingress and its
children, a one-in-one-out packet's single span.  A span waiting in a
merge or caravan FIFO is only its FIFO entry until it settles; spans
opened through :meth:`SpanTracker.open` (probes, health excursions,
rejected reports) keep their fields in ``_open``.  The ring is bounded
by spans, not entries: readers skip the surplus at its head.  A field
the layout cannot carry raises where the span opens or closes.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from typing import Callable, Deque, Dict, Iterator, List, Optional, Tuple

from ..core.caravan import caravan_inner_count, is_caravan
from ..core.worker import WorkerObserver
from ..packet.flow import FlowKey
from .codec import ENTRY_HEAD, SPAN, Forms, entry, flow_fields

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
        return _span_dict(self.sid, self.kind, self.opened_at, self.closed_at, self.outcome,
                          self.parents, self.stage,
                          None if self.flow is None else str(self.flow))


def _span_dict(sid, kind, opened_at, closed_at, outcome, parents, stage, flow) -> dict:
    """The export layout of one span, its *flow* already formatted."""
    payload = {"sid": sid, "kind": kind, "opened_at": opened_at, "closed_at": closed_at,
               "outcome": outcome, "stage": stage, "parents": list(parents)}
    if flow is not None:
        payload["flow"] = flow
    return payload


_ONE = entry(1, 0)  # an entry of one span without parents


class SpanTracker(WorkerObserver):
    """Opens, closes, and reconciles packet lifecycle spans.

    Span ids are sequential, so two same-seed runs produce byte-identical
    exports.  Finished spans land in a ring that keeps the newest
    ``capacity`` spans; the counters and latency maps are exact
    regardless of shedding.
    """

    def __init__(self, capacity: int = 65536):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        #: Balance counters — ``opened == closed + dropped + open_count()``.
        self.opened = 0
        self.closed = 0
        self.dropped = 0
        #: Impossibilities observed (unknown sid, FIFO under-run).  The
        #: chaos oracle requires this to stay zero.
        self.anomalies = 0
        self._next_sid = 0
        # sid -> (flow, kind, stage, span fields and parents) of a span ``open`` opened
        self._open: Dict[int, tuple] = {}
        self._done: Deque[bytes] = deque()
        self._held = 0  # spans in ``_done``, the surplus at its head included
        self._forms = Forms()
        # Per-flow FIFOs mirroring the merge engines' buffers; each entry
        # is an open span: merge [sid, bytes_left, enqueued_at, opened_at],
        # caravan (sid, opened_at).
        self._merge_fifo: Dict[object, Deque[list]] = {}
        self._caravan_fifo: Dict[object, Deque[tuple]] = {}
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
            self._fan_out(at, now, stage, key, len(outputs))
            return
        elif stage == "malformed-caravan":
            self.sync_drop(at, now, "malformed-caravan", flow=key)
            return
        if type(key) is not FlowKey:
            self.sync(at, now, stage, flow=key)
            return
        # One in, one out (mss, hairpin, forward, passthrough): ``sync`` inlined.
        sid = self._next_sid
        proto, src, sport, dst, dport = key  # unpacked: ``*key`` is slow
        self._keep(_ONE.pack(1, now, 1, proto, src, sport, dst, dport,
                             sid, at, self._forms["packet", stage, "egress", True], 0), 1)
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
        """Close every FIFO-resident span, one entry per flow: on
        failover the old worker's pending bytes are re-emitted from the
        checkpoint through :meth:`PXGateway.forward`, bypassing the
        worker, so their ingress spans settle here."""
        form = self._forms["packet", None, "failover", True]
        for fifos in (self._merge_fifo, self._caravan_fifo):
            for flow, fifo in fifos.items():
                values: list = []
                for span in fifo:  # the open time is each FIFO entry's last field
                    values += (span[0], span[-1], form, 0)
                self._settle(now, flow, values)
            fifos.clear()
        self._fifo_bytes = 0
        self._fifo_datagrams = 0

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

    # ------------------------------------------------------------------
    # Settlement: what one worker call settles is one ring entry
    # ------------------------------------------------------------------
    def _fed(self, packet, key, at, now, outputs, tcp: bool) -> None:
        """Mirror one merge-engine ``feed`` call onto that engine's FIFO.

        ``out is packet`` in the outputs ⟺ the packet passed through
        unbuffered (non-mergeable, flag-bearing, or empty); otherwise its
        span opens as an entry of the per-flow FIFO.  A single-datagram
        caravan flush materializes as the *original* buffered packet
        object, so the identity test is sound for both engines.  Enqueue
        before consume: spliced outputs drain old bytes head-first by
        exact count, so a flush-then-restart of the same flow stays
        balanced.
        """
        for out in outputs:
            if out is packet:
                break
        else:
            fifos = self._merge_fifo if tcp else self._caravan_fifo
            fifo = fifos.get(key)
            if fifo is None:
                ENTRY_HEAD.pack(0, 0.0, *flow_fields(key))  # raises for a flow no entry carries
                fifo = fifos[key] = deque()
            sid = self._next_sid
            self._next_sid = sid + 1
            self.opened += 1
            if tcp:
                nbytes = len(packet.payload)
                fifo.append([sid, nbytes, now, at])
                self._fifo_bytes += nbytes
            else:
                fifo.append((sid, at))
                self._fifo_datagrams += 1
        settle = self._merged if tcp else self._caravan_out
        for out in outputs:
            if out is packet:
                self.sync(at, now, "passthrough", flow=key)
            else:
                settle(out, now)

    def _merged(self, out, now: float) -> None:
        """Settle a merge-engine output from its flow's FIFO, head-first:
        each span whose last bytes it carries closes (``merged``, with its
        merge wait and residency); a ``merged`` child names every span it
        carries bytes of, a partly consumed head included."""
        flow = out.flow_key()
        nbytes = wanted = len(out.payload)
        fifo = self._merge_fifo.get(flow)
        values: list = []  # each closed span's fields, then the child's
        parents: List[int] = []
        form = self._forms["packet", None, "merged", True]
        wait = self._latency[MERGE_WAIT_SECONDS]
        res = self._latency[GATEWAY_RESIDENCY_SECONDS]
        while nbytes > 0:
            if not fifo:
                self.anomalies += 1
                break
            head = fifo[0]
            sid, left, enqueued_at, opened_at = head
            parents.append(sid)
            if left > nbytes:
                head[1] = left - nbytes
                nbytes = 0
                break
            nbytes -= left
            fifo.popleft()
            values += (sid, opened_at, form, 0)
            delta = now - enqueued_at
            wait[delta] = wait.get(delta, 0) + 1
            delta = now - opened_at
            res[delta] = res.get(delta, 0) + 1
        self._fifo_bytes -= wanted - nbytes
        if fifo is not None and not fifo:
            del self._merge_fifo[flow]
        self._settle(now, flow, values, ("merged", None, "egress", True), parents)

    def _caravan_out(self, out, now: float) -> None:
        """Settle a materialized caravan (outcome ``bundled``, then a
        ``caravan`` child) or a flushed datagram (``flushed``) from its
        flow's FIFO."""
        bundled = is_caravan(out)
        form = self._forms["packet", None, "bundled" if bundled else "flushed", True]
        flow = out.flow_key()
        fifo = self._caravan_fifo.get(flow)
        values: list = []
        parents: List[int] = []
        res = self._latency[GATEWAY_RESIDENCY_SECONDS]
        for _ in range(caravan_inner_count(out)):
            if not fifo:
                self.anomalies += 1
                break
            sid, opened_at = fifo.popleft()
            parents.append(sid)
            values += (sid, opened_at, form, 0)
            delta = now - opened_at
            res[delta] = res.get(delta, 0) + 1
        self._fifo_datagrams -= len(parents)
        if fifo is not None and not fifo:
            del self._caravan_fifo[flow]
        first_at = out.meta.get("caravan_first_at")
        if first_at is not None:
            self.observe(CARAVAN_BATCH_WAIT_SECONDS, now - first_at)
        self._settle(now, flow, values, ("caravan", None, "egress", True) if bundled else None,
                     parents)

    def _settle(self, now: float, flow, values: list, child: Optional[tuple] = None,
                parents=()) -> None:
        """Keep the spans a settlement closed (*values*, four fields
        each) and, given its form, their *child*, born closed with
        *parents*, as one entry."""
        count = len(values) >> 2
        if child is not None:
            values += (self._next_sid, now, self._forms[child], len(parents))
            values += parents
            count += 1
        if count:
            self._keep(self._entry(now, flow, count, values), count)
            self.closed += count
            if child is not None:
                self._next_sid += 1
                self.opened += 1

    def _fan_out(self, at: float, now: float, stage: str, key, count: int) -> None:
        """Settle a split or a caravan-open as one entry: the ingress span
        (its residency recorded) and *count* children born closed."""
        sid = self._next_sid
        first = sid + 1
        split = stage == "split"  # a caravan-open's datagrams carry no flow
        child = self._forms["split-segment" if split else "datagram", None, "egress", split]
        values = [sid, at, self._forms["packet", stage, "egress", True], 0]
        for kid in range(first, first + count):
            values += (kid, now, child, 1)
        values += [sid] * count
        self._keep(self._entry(now, key, count + 1, values), count + 1)
        self._next_sid = first + count
        self.opened += count + 1
        self.closed += count + 1
        self.observe(GATEWAY_RESIDENCY_SECONDS, now - at)

    def _entry(self, closed_at: float, flow, count: int, values: list) -> bytes:
        """One entry: *count* spans closed at *closed_at*, their fields
        then their parents in *values*; *flow* is every span's whose
        form is keyed."""
        tag, proto, src, sport, dst, dport = flow_fields(flow)  # two ``*`` in one call are slow
        return entry(count, len(values) - 4 * count).pack(
            count, closed_at, tag, proto, src, sport, dst, dport, *values)

    def _keep(self, record: bytes, count: int) -> None:
        """Append an entry of *count* spans; the oldest entry goes once
        the spans after it fill the ring."""
        done = self._done
        done.append(record)
        held = self._held + count
        # An entry's first field is its span count, ``<H``.
        while held - self.capacity >= (first := done[0][0] | done[0][1] << 8):
            done.popleft()
            held -= first
        self._held = held

    # ------------------------------------------------------------------
    # Core open/close API
    # ------------------------------------------------------------------
    def open(self, opened_at: float, kind: str = "packet",
             parents: Tuple[int, ...] = (), stage: Optional[str] = None,
             flow=None) -> int:
        """Open a span; returns its id for a later close/drop."""
        sid = self._next_sid
        span = [sid, opened_at, 0, len(parents), *parents]  # its form code comes at close
        Forms.check((kind, stage, None))
        self._entry(opened_at, flow, 1, span)  # packed here only to raise where it opens
        self._next_sid = sid + 1
        self.opened += 1
        self._open[sid] = (flow, kind, stage, span)
        return sid

    def _finish(self, sid: int, at: float, outcome: str) -> bool:
        """Move an open span to the ring; ``False`` (an anomaly) if *sid*
        is not open."""
        span = self._open.get(sid)
        if span is None:
            self.anomalies += 1
            return False
        flow, kind, stage, values = span
        values[2] = self._forms[kind, stage, outcome, True]
        self._keep(self._entry(at, flow, 1, values), 1)
        del self._open[sid]
        return True

    def close(self, sid: int, closed_at: float, outcome: str = "egress") -> None:
        """Close an open span with a terminal outcome."""
        if self._finish(sid, closed_at, outcome):
            self.closed += 1

    def drop(self, sid: int, at: float, reason: str) -> None:
        """Close an open span as dropped (counts in ``dropped``)."""
        if self._finish(sid, at, reason):
            self.dropped += 1

    def sync(self, opened_at: float, closed_at: float, stage: str,
             kind: str = "packet", flow=None) -> int:
        """Fast path: a packet that entered and left in one call.

        Creates the span already finished (no open-dict round trip) and
        records its gateway residency.
        """
        sid = self._next_sid
        form = self._forms[kind, stage, "egress", True]
        self._keep(self._entry(closed_at, flow, 1, [sid, opened_at, form, 0]), 1)
        self._next_sid = sid + 1
        self.opened += 1
        self.closed += 1
        self.observe(GATEWAY_RESIDENCY_SECONDS, closed_at - opened_at)
        return sid

    def sync_drop(self, opened_at: float, at: float, reason: str, flow=None) -> int:
        """Fast path: a packet dropped in the same call it arrived in."""
        sid = self._next_sid
        form = self._forms["packet", "drop", reason, True]
        self._keep(self._entry(at, flow, 1, [sid, opened_at, form, 0]), 1)
        self._next_sid = sid + 1
        self.opened += 1
        self.dropped += 1
        return sid

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
        return (len(self._open) + self._fifo_datagrams
                + sum(len(fifo) for fifo in self._merge_fifo.values()))

    def pending_merge_bytes(self) -> int:
        """Bytes the FIFOs believe the TCP merge engine is holding."""
        return self._fifo_bytes

    def pending_caravan_datagrams(self) -> int:
        """Datagrams the FIFOs believe the caravan engine is holding."""
        return self._fifo_datagrams

    @property
    def shed(self) -> int:
        """Finished spans evicted from the bounded ring."""
        return self.closed + self.dropped - min(self._held, self.capacity)

    def balance(self) -> dict:
        """The conservation-law view the chaos oracle asserts."""
        return {
            "opened": self.opened,
            "closed": self.closed,
            "dropped": self.dropped,
            "open": self.open_count(),
        }

    @property
    def balanced(self) -> bool:
        """Whether the span-balance identity holds right now."""
        return self.opened == self.closed + self.dropped + self.open_count()

    def _rows(self, skip: int, flow: Callable[[tuple], object]) -> Iterator[tuple]:
        """The retained finished spans, oldest first, past the first
        *skip* of them, as ``Span`` arguments: every span of every entry,
        less the surplus at the ring's head.  A keyed span's flow is
        ``flow(fields)`` of its entry's five flow fields, made once per
        entry."""
        forms = self._forms.names
        skip += max(self._held - self.capacity, 0)
        for record in self._done:
            count = record[0] | record[1] << 8  # an entry's first field, ``<H``
            if skip >= count:
                skip -= count
                continue
            values = entry(count, (len(record) - ENTRY_HEAD.size - SPAN.size * count) >> 3
                           ).unpack(record)
            closed_at = values[1]
            key = flow(values[3:8]) if values[2] else None
            at = 8 + 4 * count  # where this entry's parents start
            for field in range(8, at, 4):
                sid, opened_at, form, parents = values[field:field + 4]
                if skip > 0:
                    skip -= 1
                else:
                    kind, stage, outcome, keyed = forms[form]
                    yield (sid, kind, opened_at, closed_at, outcome,
                           values[at:at + parents], stage, key if keyed else None)
                at += parents

    def _forms_held(self) -> Iterator[tuple]:
        """The form of every retained span, read in place."""
        forms = self._forms.names
        skip = max(self._held - self.capacity, 0)  # less than the oldest entry's count
        for record in self._done:
            count = record[0] | record[1] << 8
            for at in range(ENTRY_HEAD.size + SPAN.size * skip + 16,  # sid and opened_at first
                            ENTRY_HEAD.size + SPAN.size * count, SPAN.size):
                yield forms[record[at] | record[at + 1] << 8]
            skip = 0

    def finished(self, kind: Optional[str] = None) -> List[Span]:
        """Retained finished spans, optionally filtered by kind."""
        return [Span(*row) for row in self._rows(0, FlowKey._make)
                if kind is None or row[1] == kind]

    def kinds(self) -> Dict[str, int]:
        """Retained finished-span counts per kind, sorted by name."""
        return dict(sorted(Counter(form[0] for form in self._forms_held()).items()))

    def stages(self) -> Dict[str, int]:
        """Retained finished-span counts per stage label."""
        stages = Counter(form[1] for form in self._forms_held())
        stages.pop(None, None)  # children carry no stage
        return dict(sorted(stages.items()))

    def _dicts(self, limit: Optional[int]) -> List[dict]:
        """``Span.to_dict`` of the retained spans, or of the newest
        *limit* (0: none; a negative limit is a ``ValueError``), built
        from the records without a ``Span``; each flow is formatted once."""
        start = 0
        if limit is not None:
            if limit < 0:
                raise ValueError("limit must be non-negative")
            start = max(min(self._held, self.capacity) - limit, 0)
        texts: Dict[tuple, str] = {}

        def text(fields: tuple) -> str:
            named = texts.get(fields)
            if named is None:
                named = texts[fields] = str(FlowKey._make(fields))
            return named

        return [_span_dict(*row) for row in self._rows(start, text)]

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
