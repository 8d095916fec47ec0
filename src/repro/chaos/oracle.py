"""The invariant oracle: end-to-end correctness checks under faults.

The oracle observes packets at four points — sender TX, gateway
ingress, gateway egress, receiver RX — via link taps
(:class:`ChaosTap`), plus the application-level send/receive records a
scenario keeps, and asserts the properties an MTU-translating gateway
must never violate *no matter what the network does*:

1. **TCP byte-stream transparency** — every connection delivers exactly
   the bytes the sender queued, in order (the stack only advances
   ``bytes_delivered`` in sequence, so count equality == stream
   equality in the zero-filled-payload model).
2. **Datagram-boundary preservation** — caravans never invent, lose,
   or re-slice a datagram beyond what the injected faults account for.
3. **MSS discipline** — no TCP segment on an external link ever
   exceeds the clamped MSS; nothing on any link exceeds its MTU.
4. **Counter conservation** — ``GatewayStats`` balances: payload in ==
   payload out + still-buffered (+ discarded-as-malformed for UDP).
5. **Bounded recovery** — the resilience health monitor ends the run
   back in HEALTHY, and every degradation excursion closes within a
   bounded window of opening.
6. **F-PMTUD convergence** — the prober's estimate lands within the
   8-byte fragment-alignment band below the true path minimum.

Canonical packet summaries *exclude* ``ip.identification``: the IP-ID
allocator is process-global, so absolute IDs differ between runs in one
process even though behaviour (which keys on consecutive-ID deltas) is
identical.  Everything else goes into the trace digest.
"""

from __future__ import annotations

import hashlib
import struct
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..packet import IPProto, Packet

__all__ = [
    "ChaosTap",
    "InvariantOracle",
    "summarize_packet",
    "trace_digest",
]


def summarize_packet(packet: Packet) -> tuple:
    """A canonical, run-stable description of one packet.

    Deliberately excludes ``ip.identification`` (process-global counter)
    and absolute payload bytes of caravans (which embed IP IDs); keeps
    everything behaviourally relevant: addressing, flags, lengths, TCP
    sequence space, and chaos mutation marks.
    """
    ip = packet.ip
    base = (
        ip.protocol,
        ip.src,
        ip.dst,
        packet.total_len,
        ip.tos,
        int(ip.dont_fragment),
        int(ip.more_fragments),
        ip.fragment_offset,
    )
    marks = tuple(sorted(k for k in packet.meta if k.startswith("chaos_")))
    if packet.is_fragment:
        return base + ("frag", len(packet.payload)) + marks
    if packet.is_tcp:
        tcp = packet.tcp
        return base + (
            "tcp",
            tcp.src_port,
            tcp.dst_port,
            tcp.seq,
            tcp.ack,
            tcp.flags,
            len(packet.payload),
        ) + marks
    if packet.is_udp:
        udp = packet.udp
        return base + ("udp", udp.src_port, udp.dst_port, len(packet.payload)) + marks
    return base + ("other",) + marks


def _interval_add(intervals: List[List[int]], lo: int, hi: int) -> None:
    """Insert [lo, hi) into a sorted list of disjoint intervals."""
    merged: List[List[int]] = []
    placed = False
    for start, stop in intervals:
        if stop < lo or start > hi:
            if start > hi and not placed:
                merged.append([lo, hi])
                placed = True
            merged.append([start, stop])
        else:
            lo = min(lo, start)
            hi = max(hi, stop)
    if not placed:
        merged.append([lo, hi])
    merged.sort()
    intervals[:] = merged


def _interval_contains(intervals: List[List[int]], lo: int, hi: int) -> bool:
    """True when [lo, hi) is fully inside one recorded interval."""
    for start, stop in intervals:
        if start <= lo and hi <= stop:
            return True
    return False


_QUOTE = struct.Struct("!2xH5xB2xIIHHI")  # total length, protocol, src, dst, ports, seq


class ChaosTap:
    """A link tap recording canonical events at one observation point."""

    def __init__(self, point: str):
        self.point = point
        self.events: List[Tuple[float, str, tuple]] = []
        #: Frag-needed ICMPs received here, outside the digest: (sender,
        #: then the quoted protocol, src, dst, total length, ports, seq).
        self.frag_needed: List[tuple] = []

    def __call__(self, event: str, packet: Packet, now: float) -> None:
        self.events.append((round(now, 9), event, summarize_packet(packet)))
        if event == "rx" and packet.is_icmp and packet.icmp.is_frag_needed:
            quote = packet.icmp.payload
            if len(quote) >= 28:  # the IPv4 header and 8 bytes, as routers quote
                self.frag_needed.append((packet.ip.src, *_QUOTE.unpack_from(quote)))

    def packets(self, event: str = "rx") -> List[tuple]:
        """Summaries of packets that produced *event* at this point."""
        return [summary for _, kind, summary in self.events if kind == event]


def trace_digest(taps: "Iterable[ChaosTap]") -> str:
    """A sha256 over every tap's event stream — the replay fingerprint."""
    digest = hashlib.sha256()
    for tap in sorted(taps, key=lambda t: t.point):
        digest.update(tap.point.encode())
        for time, event, summary in tap.events:
            digest.update(repr((time, event, summary)).encode())
    return digest.hexdigest()


class InvariantOracle:
    """Collects invariant violations from one chaos scenario."""

    def __init__(self):
        self.violations: List[str] = []
        self.checks_run = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def expect(self, condition: bool, invariant: str, detail: str) -> bool:
        self.checks_run += 1
        if not condition:
            self.violations.append(f"{invariant}: {detail}")
        return condition

    # ------------------------------------------------------------------
    # 1. TCP byte-stream transparency
    # ------------------------------------------------------------------
    def check_tcp_stream(self, name: str, sent_bytes: int, connection) -> None:
        """The receiver must deliver exactly what the sender queued.

        ``TCPConnection`` only advances ``bytes_delivered`` for in-order
        data at ``rcv_nxt``, so delivered-count equality implies both
        stream equality and in-order delivery.
        """
        self.expect(
            connection.bytes_delivered == sent_bytes,
            "tcp-stream",
            f"{name}: delivered {connection.bytes_delivered} of {sent_bytes} bytes",
        )
        self.expect(
            connection.bytes_delivered <= sent_bytes,
            "tcp-stream",
            f"{name}: delivered MORE than sent "
            f"({connection.bytes_delivered} > {sent_bytes}) — bytes invented",
        )

    def check_tcp_seq_coverage(self, ingress: "ChaosTap", egress: "ChaosTap") -> None:
        """The gateway must never emit a TCP byte it has not yet received.

        Replays the two taps in time order and checks that every data
        segment leaving the gateway covers a sequence range already
        ingressed for that flow.  The correct merge engine only ever
        re-segments contiguous received bytes, so this holds under any
        fault schedule; a merge engine that papers over a sequence gap
        (e.g. appending an out-of-order packet as if it were in order)
        emits bytes for a hole it never received and is caught here —
        even though the zero-filled payload model makes the final byte
        *counts* come out right once retransmission heals the stream.
        """
        events: List[Tuple[float, int, tuple]] = []
        for time, kind, summary in ingress.events:
            if kind == "rx" and "tcp" in summary:
                events.append((time, 0, summary))
        for time, kind, summary in egress.events:
            if kind == "tx" and "tcp" in summary:
                events.append((time, 1, summary))
        # At equal timestamps the gateway ingests before it emits.
        events.sort(key=lambda entry: (entry[0], entry[1]))

        received: Dict[tuple, List[List[int]]] = {}
        for time, phase, summary in events:
            anchor = summary.index("tcp")
            src_port, dst_port, seq, _ack, _flags, payload_len = summary[
                anchor + 1 : anchor + 7
            ]
            if payload_len == 0:
                continue
            flow = (summary[1], summary[2], src_port, dst_port)
            lo, hi = seq, seq + payload_len
            if phase == 0:
                _interval_add(received.setdefault(flow, []), lo, hi)
            else:
                self.expect(
                    _interval_contains(received.get(flow, []), lo, hi),
                    "tcp-seq-coverage",
                    f"{egress.point}: flow {flow} emitted seq [{lo}, {hi}) "
                    f"at t={time} before receiving it "
                    f"(received so far: {received.get(flow, [])})",
                )

    # ------------------------------------------------------------------
    # 2. Datagram-boundary preservation
    # ------------------------------------------------------------------
    def check_datagram_flow(
        self,
        name: str,
        sent: "Sequence[bytes]",
        received: "Sequence[bytes]",
        loss_budget: int = 0,
        dup_budget: int = 0,
        mutation_budget: int = 0,
    ) -> None:
        """Received datagrams must be exactly the sent ones, modulo the
        injected-fault budgets.

        * a datagram missing beyond ``loss_budget + mutation_budget``
          means the gateway *lost* one;
        * an unexpected payload beyond ``mutation_budget`` means the
          gateway *invented or re-sliced* one (boundary violation);
        * a surplus copy beyond ``dup_budget`` means it *duplicated* one.
        """
        sent_counts = Counter(sent)
        recv_counts = Counter(received)
        missing = sum((sent_counts - recv_counts).values())
        surplus = recv_counts - sent_counts
        invented = sum(count for payload, count in surplus.items() if payload not in sent_counts)
        duplicated = sum(count for payload, count in surplus.items() if payload in sent_counts)
        self.expect(
            missing <= loss_budget + mutation_budget,
            "datagram-boundary",
            f"{name}: {missing} datagram(s) missing but faults only "
            f"account for {loss_budget + mutation_budget}",
        )
        self.expect(
            invented <= mutation_budget,
            "datagram-boundary",
            f"{name}: {invented} datagram(s) invented/re-sliced "
            f"(mutation budget {mutation_budget})",
        )
        self.expect(
            duplicated <= dup_budget,
            "datagram-boundary",
            f"{name}: {duplicated} surplus copy(ies) (duplicate budget {dup_budget})",
        )

    # ------------------------------------------------------------------
    # 3. MSS / MTU discipline
    # ------------------------------------------------------------------
    def check_segment_sizes(
        self,
        tap: ChaosTap,
        mtu: int,
        max_tcp_payload: Optional[int] = None,
    ) -> None:
        """Nothing offered to a link may exceed its MTU, and TCP data
        segments must respect the clamped MSS on that link.

        The link drops an oversize frame as ``drop-mtu`` before anything
        can receive it, so the MTU check reads those drops too: an
        ``rx`` over the MTU is a link bug, a ``drop-mtu`` is a sender
        that ignored the MTU (the classic blackhole).  A TCP fragment is
        a segment some hop had to fragment because it was sized above
        that hop's MTU (DF clear): every TCP sender here sizes its
        segments to the path, and PXGW splits to the eMTU, so none may
        appear."""
        for summary in tap.packets("drop-mtu"):
            self.expect(
                False,
                "mtu",
                f"{tap.point}: {summary[3]} B packet dropped by an {mtu} B link",
            )
        for summary in tap.packets("rx"):
            total_len = summary[3]
            self.expect(
                total_len <= mtu,
                "mtu",
                f"{tap.point}: {total_len} B packet on an {mtu} B link",
            )
            if summary[0] == IPProto.TCP and summary[8] == "frag":
                self.expect(
                    False,
                    "mtu",
                    f"{tap.point}: TCP fragment of {total_len} B: a segment was "
                    f"sized above some hop's MTU",
                )
            if max_tcp_payload is not None and "tcp" in summary:
                payload_len = summary[summary.index("tcp") + 6]
                self.expect(
                    payload_len <= max_tcp_payload,
                    "mss-clamp",
                    f"{tap.point}: TCP payload {payload_len} B exceeds "
                    f"negotiated MSS {max_tcp_payload} B",
                )

    def check_frag_needed(self, sent: ChaosTap, returned: ChaosTap, gateway) -> None:
        """A PXGW sizes every TCP segment it makes to the next link, so a
        frag-needed ICMP it sends back (seen at *returned*) may only
        quote a TCP segment it forwarded as received (seen at *sent*,
        e.g. in bypass).  One that quotes a segment of its own making —
        a split sized above the eMTU, refused by the next hop because
        it carries DF — is an ``mtu`` violation."""
        own = {interface.ip for interface in gateway.interfaces}
        received = {(summary[1], summary[2], summary[3], *summary[9:12])
                    for summary in sent.packets("rx") if "tcp" in summary}
        for sender, total_len, protocol, src, dst, sport, dport, seq in returned.frag_needed:
            if (sender in own and protocol == IPProto.TCP
                    and (src, dst, total_len, sport, dport, seq) not in received):
                self.expect(
                    False,
                    "mtu",
                    f"{returned.point}: {gateway.name} sent frag-needed for a "
                    f"{total_len} B TCP segment of its own",
                )

    # ------------------------------------------------------------------
    # 4. Gateway counter conservation
    # ------------------------------------------------------------------
    def check_gateway_stats(self, gateway) -> None:
        """``GatewayStats`` must balance against live engine buffers."""
        worker = gateway.worker
        stats = worker.stats
        errors = stats.conservation_errors(
            pending_tcp_bytes=worker.merge.pending_bytes(),
            pending_datagrams=worker.caravan_merge.pending_packets(),
        )
        self.expect(
            not errors,
            "stats-conservation",
            f"{gateway.name}: imbalance {errors} "
            f"(in={stats.tcp_payload_in}/{stats.udp_datagrams_in} "
            f"out={stats.tcp_payload_out}/{stats.udp_datagrams_out})",
        )
        self.expect(
            0.0 <= stats.conversion_yield <= 1.0,
            "stats-conservation",
            f"{gateway.name}: conversion_yield {stats.conversion_yield} out of range",
        )
        self.expect(
            stats.inbound_full_packets <= stats.inbound_data_packets,
            "stats-conservation",
            f"{gateway.name}: full packets {stats.inbound_full_packets} "
            f"> data packets {stats.inbound_data_packets}",
        )

    # ------------------------------------------------------------------
    # 4b. Registry reconciliation: exports must match the live stats
    # ------------------------------------------------------------------
    def check_registry(self, registry, gateway) -> None:
        """A scraped metrics registry must agree with the live gateway.

        Two layers: (a) the exported packet counters equal the
        ``GatewayStats`` values the conservation check audits — a
        collector reading the wrong worker fails here; (b) the conservation identity holds using
        *exported series alone*, so a metrics consumer sees a balanced
        gateway without access to internals.
        """
        snapshot = registry.snapshot()
        worker = gateway.worker
        stats = worker.stats
        suffix = f'{{gateway="{gateway.name}"}}'

        def series(name: str, **labels) -> float:
            items = sorted(list(labels.items()) + [("gateway", gateway.name)])
            inner = ",".join(f'{key}="{value}"' for key, value in items)
            return snapshot.get(name + "{" + inner + "}", 0)

        for name, live in (
            ("px_gateway_rx_packets_total", stats.rx_packets),
            ("px_gateway_tx_packets_total", stats.tx_packets),
            ("px_gateway_merged_packets_total", stats.merged_packets),
            ("px_gateway_split_segments_total", stats.split_segments),
            ("px_gateway_caravans_built_total", stats.caravans_built),
            ("px_gateway_caravans_opened_total", stats.caravans_opened),
            ("px_gateway_malformed_caravans_total", stats.malformed_caravans),
            ("px_worker_cycles_total", worker.account.cycles),
        ):
            exported = snapshot.get(name + suffix)
            self.expect(
                exported == live,
                "registry-reconciliation",
                f"{name}{suffix} exported {exported!r}, live value {live}",
            )

        tcp_in = series("px_gateway_tcp_payload_bytes_total", direction="in")
        tcp_out = series("px_gateway_tcp_payload_bytes_total", direction="out")
        pending_bytes = snapshot.get(f"px_gateway_pending_merge_bytes{suffix}", 0)
        self.expect(
            tcp_in == tcp_out + pending_bytes,
            "registry-reconciliation",
            f"exported TCP payload imbalance: in={tcp_in} "
            f"out={tcp_out} pending={pending_bytes}",
        )
        udp_in = series("px_gateway_udp_datagrams_total", direction="in")
        udp_out = series("px_gateway_udp_datagrams_total", direction="out")
        pending_dgrams = snapshot.get(
            f"px_gateway_pending_caravan_datagrams{suffix}", 0
        )
        malformed = snapshot.get(
            f"px_gateway_udp_datagrams_malformed_total{suffix}", 0
        )
        self.expect(
            udp_in == udp_out + pending_dgrams + malformed,
            "registry-reconciliation",
            f"exported UDP datagram imbalance: in={udp_in} out={udp_out} "
            f"pending={pending_dgrams} malformed={malformed}",
        )

    # ------------------------------------------------------------------
    # 5. Span balance: every opened span must be accounted for
    # ------------------------------------------------------------------
    def check_spans(self, tracker, gateway) -> None:
        """The span tracker's conservation law and FIFO reconciliation.

        Duck-typed over :class:`repro.obs.SpanTracker`.  Three claims:

        * **balance** — ``opened == closed + dropped + open``: no span
          is ever lost or double-settled, under every fault class.
        * **no anomalies** — the tracker never saw an impossibility
          (closing an unknown span, consuming bytes or datagrams that
          were never enqueued).
        * **FIFO mirror** — the bytes/datagrams the span FIFOs believe
          are buffered equal what the live merge engines actually hold,
          so open spans correspond 1:1 to real buffered payload.
        """
        balance = tracker.balance()
        self.expect(
            balance["opened"]
            == balance["closed"] + balance["dropped"] + balance["open"],
            "span-balance",
            f"span identity broken: {balance}",
        )
        self.expect(
            tracker.anomalies == 0,
            "span-balance",
            f"span tracker saw {tracker.anomalies} accounting anomalies",
        )
        worker = gateway.worker
        self.expect(
            tracker.pending_merge_bytes() == worker.merge.pending_bytes(),
            "span-balance",
            f"merge FIFO mirror drifted: spans={tracker.pending_merge_bytes()} "
            f"engine={worker.merge.pending_bytes()}",
        )
        self.expect(
            tracker.pending_caravan_datagrams()
            == worker.caravan_merge.pending_packets(),
            "span-balance",
            f"caravan FIFO mirror drifted: "
            f"spans={tracker.pending_caravan_datagrams()} "
            f"engine={worker.caravan_merge.pending_packets()}",
        )

    # ------------------------------------------------------------------
    # 6. Recovery: degradation must be bounded and end HEALTHY
    # ------------------------------------------------------------------
    def check_recovery(self, monitor, max_excursion: float = 1.0) -> None:
        """The resilience layer must have *recovered* by scenario end.

        Duck-typed over :class:`repro.resilience.HealthMonitor`: the
        final state must be HEALTHY, and every excursion away from
        HEALTHY must have closed within *max_excursion* simulated
        seconds of opening.  Faults in the corpus all have finite hit
        counts, so unbounded degradation means the health machinery is
        stuck, not that the network is still hostile.
        """
        self.expect(
            monitor.state == "healthy",
            "recovery",
            f"gateway ended {monitor.state!r}, not healthy "
            f"(transitions: {monitor.transitions})",
        )
        for left_at, returned_at in monitor.excursions():
            if not self.expect(
                returned_at is not None,
                "recovery",
                f"excursion opened at t={left_at:.4f} never closed",
            ):
                continue
            self.expect(
                returned_at - left_at <= max_excursion,
                "recovery",
                f"excursion [{left_at:.4f}, {returned_at:.4f}] lasted "
                f"{returned_at - left_at:.4f}s (bound {max_excursion}s)",
            )

    # ------------------------------------------------------------------
    # 6. F-PMTUD convergence
    # ------------------------------------------------------------------
    def check_pmtud(self, results: "Sequence", true_min_mtu: int) -> None:
        """The final estimate must land in the fragment-alignment band
        ``[true_min - 7, true_min]`` (fragments are 8-byte aligned)."""
        if not self.expect(
            len(results) >= 1,
            "pmtud-convergence",
            f"prober produced no result (true minimum {true_min_mtu} B)",
        ):
            return
        final = results[-1].pmtu
        self.expect(
            true_min_mtu - 7 <= final <= true_min_mtu,
            "pmtud-convergence",
            f"estimate {final} B outside [{true_min_mtu - 7}, {true_min_mtu}]",
        )

    # ------------------------------------------------------------------
    # 7. PMTU sanity under attack
    # ------------------------------------------------------------------
    def check_pmtu_sanity(
        self,
        estimates: "Sequence[int]",
        true_min_mtu: int,
        link_mtu: int,
        floor: int = 576,
    ) -> None:
        """Every *accepted* PMTU estimate must be physically possible.

        A hardened endpoint never acts on a value below the plausibility
        floor or above the first-hop link MTU, and the value it finally
        settles on must not exceed the true path minimum (an inflated
        estimate blackholes every full-sized packet at the bottleneck).
        This is the oracle the adversarial teeth test points at a
        deliberately un-hardened prober: accepting a forged report must
        surface here, not silently mis-size the datapath.
        """
        for estimate in estimates:
            self.expect(
                floor <= estimate <= link_mtu,
                "pmtu-sanity",
                f"accepted estimate {estimate} B outside the plausible "
                f"band [{floor}, {link_mtu}]",
            )
        if estimates:
            final = estimates[-1]
            self.expect(
                final <= true_min_mtu,
                "pmtu-sanity",
                f"final estimate {final} B exceeds the true path minimum "
                f"{true_min_mtu} B (oversized packets will blackhole)",
            )
