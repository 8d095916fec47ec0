"""PXGW's TCP merge engine: a per-flow byte-stream resegmenter.

Unlike end-host LRO/GRO (which coalesce whole wire packets), PXGW
exploits TCP's byte-stream nature fully: in-order payload bytes of a
flow are spliced into a per-flow buffer and re-emitted as exactly
iMTU-sized segments, with the remainder carried over into the next
output.  This is what lets the prototype convert 93–94 % of packets to
full 9000 B jumbos even though 1448 B input payloads never divide the
iMTU evenly.

Conformance rules:

* only in-order data bytes are spliced; an out-of-order arrival flushes
  the buffer and restarts (the gap must reach the receiver for dup-ACK
  recovery to work);
* SYN/FIN/RST/URG segments flush the flow and pass through verbatim;
* pure ACKs pass through untouched;
* the latest ACK/window seen is copied onto emitted segments so the
  reverse-path information stays fresh.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from heapq import heapify, heappop, heappush
from typing import Callable, Deque, List, Optional, Tuple

from ..packet import IPProto, Packet, TCPFlags
from ..packet.builder import next_ip_id
from ..packet.flow import FlowKey
from ..packet.packet import _UNSET

__all__ = ["TcpMergeEngine", "StreamContext"]

_NO_MERGE_FLAGS = TCPFlags.SYN | TCPFlags.FIN | TCPFlags.RST | TCPFlags.URG
_SEQ_MOD = 1 << 32


class AgeIndex:
    """Which merge contexts have held bytes too long, found without a scan.

    Shared by :class:`TcpMergeEngine` and the caravan merge engine so a
    poll-batch boundary costs O(expired · log n), not a scan of every
    live context.  It watches an engine's LRU table (``OrderedDict`` of
    key → context) and asks three attributes of a context:
    ``created_at`` (when its oldest held byte arrived), ``age_seq`` (the
    id of its one live index entry) and ``touched`` (its place in LRU
    order; the engine stamps it from :attr:`seq` wherever it inserts or
    ``move_to_end``s).

    The index is a min-heap of ``(created_at, seq, key)`` with lazy
    deletion: removing or re-dating a context leaves its old entry
    behind, recognised as garbage because no context under that key
    carries that ``seq`` any more.  Entries name the context by key and
    never hold it, so a flushed context's payload dies with it.
    """

    __slots__ = ("_contexts", "_heap", "seq")

    def __init__(self, contexts: "OrderedDict[FlowKey, object]"):
        self._contexts = contexts
        self._heap: List[Tuple[float, int, FlowKey]] = []
        #: One counter feeds both ``age_seq`` and ``touched``; only the
        #: relative order of values matters for either.
        self.seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def date(self, key: FlowKey, context) -> int:
        """Index *context* (already in the table) under its ``created_at``.

        Supersedes the context's earlier entry, if any.  Returns the
        fresh sequence number so an opening engine can reuse it as the
        context's ``touched`` stamp.
        """
        self.seq = seq = self.seq + 1
        context.age_seq = seq
        heappush(self._heap, (context.created_at, seq, key))
        self.compact()
        return seq

    def compact(self) -> None:
        """Drop garbage entries once they outnumber the live ones.

        Expiry only pops what is old enough, so a caller that never
        advances ``now`` would otherwise grow the heap without bound.
        """
        if len(self._heap) > 2 * len(self._contexts) + 64:
            self._heap = [
                (context.created_at, context.age_seq, key)
                for key, context in self._contexts.items()
            ]
            heapify(self._heap)

    def flush_expired(self, now: float, max_age: float,
                      flush_key: Callable[[FlowKey], List[Packet]]) -> List[Packet]:
        """Call *flush_key* on every context at least *max_age* old.

        Contexts go in LRU order — the order a scan of the table would
        find them in — because IP IDs are drawn at flush time and every
        digest hashes egress order.  A ``now`` that stands still or
        runs backwards simply expires less.
        """
        heap = self._heap
        contexts = self._contexts
        stale = []
        while heap and now - heap[0][0] >= max_age:
            _created_at, seq, key = heappop(heap)
            context = contexts.get(key)
            if context is not None and context.age_seq == seq:
                stale.append((context.touched, key))
        if not stale:
            return []
        stale.sort()
        emitted: List[Packet] = []
        for _touched, key in stale:
            emitted.extend(flush_key(key))
        self.compact()
        return emitted


class StreamContext:
    """Buffered in-order bytes of one flow awaiting re-segmentation."""

    __slots__ = ("template", "chunks", "head_offset", "buffered", "base_seq",
                 "next_seq", "last_ack", "last_window", "created_at", "last_at",
                 "spliced_packets", "age_seq", "touched")

    def __init__(self, packet: Packet, now: float):
        tcp = packet.l4  # the engine only opens contexts for parsed TCP
        payload = packet.payload
        self.template = packet
        self.chunks: Deque[bytes] = deque((payload,))
        #: Bytes of ``chunks[0]`` already consumed by :meth:`take` —
        #: indexing instead of reslicing keeps partial takes O(taken).
        self.head_offset = 0
        self.buffered = len(payload)
        self.base_seq = tcp.seq
        self.next_seq = (tcp.seq + len(payload)) % _SEQ_MOD
        self.last_ack = tcp.ack
        self.last_window = tcp.window
        self.created_at = now
        self.last_at = now
        self.spliced_packets = 1

    def append(self, packet: Packet, now: float) -> None:
        tcp = packet.l4
        payload = packet.payload
        self.chunks.append(payload)
        self.buffered += len(payload)
        self.next_seq = (tcp.seq + len(payload)) % _SEQ_MOD
        self.last_ack = tcp.ack
        self.last_window = tcp.window
        self.last_at = now
        self.spliced_packets += 1

    def take(self, nbytes: int) -> bytes:
        """Remove and return the first *nbytes* of buffered payload.

        ``deque.popleft`` keeps chunk draining O(1) per chunk (the old
        ``list.pop(0)`` shifted the whole list, making a full drain
        O(n²) in chunks); a partially consumed head chunk is tracked by
        ``head_offset`` rather than resliced.
        """
        out = bytearray()
        chunks = self.chunks
        offset = self.head_offset
        while nbytes > 0 and chunks:
            head = chunks[0]
            available = len(head) - offset
            if available <= nbytes:
                out += head[offset:] if offset else head
                nbytes -= available
                chunks.popleft()
                offset = 0
            else:
                out += head[offset : offset + nbytes]
                offset += nbytes
                nbytes = 0
        self.head_offset = offset
        self.buffered -= len(out)
        return bytes(out)

    def make_segment(self, payload: bytes) -> Packet:
        """Emit one spliced segment starting at ``base_seq``."""
        segment = self.template.copy()
        segment.payload = payload
        tcp = segment.tcp
        ip = segment.ip
        tcp.seq = self.base_seq
        tcp.ack = self.last_ack
        tcp.window = self.last_window
        tcp.flags = TCPFlags.ACK
        ip.identification = next_ip_id()
        ip.total_length = ip.header_len + tcp.header_len + len(payload)
        segment.annotate("spliced", True)
        self.base_seq = (self.base_seq + len(payload)) % _SEQ_MOD
        return segment

    def export_segment(self) -> Packet:
        """A materialized copy of the whole buffer, without consuming it.

        Used by fleet shard checkpoints: the running context keeps its
        bytes; the checkpoint holds an emittable duplicate.
        """
        if self.head_offset:
            rest = iter(self.chunks)
            payload = next(rest)[self.head_offset :] + b"".join(rest)
        else:
            payload = b"".join(self.chunks)
        segment = self.template.copy()
        segment.payload = payload
        tcp = segment.tcp
        ip = segment.ip
        tcp.seq = self.base_seq
        tcp.ack = self.last_ack
        tcp.window = self.last_window
        tcp.flags = TCPFlags.ACK
        ip.identification = next_ip_id()
        ip.total_length = ip.header_len + tcp.header_len + len(payload)
        segment.annotate("spliced", True)
        return segment


class TcpMergeEngine:
    """Splices per-flow TCP streams into ``target_payload``-sized segments."""

    def __init__(self, target_payload: int, max_contexts: int = 4096):
        if target_payload <= 0:
            raise ValueError("target payload must be positive")
        self.target_payload = target_payload
        self.max_contexts = max_contexts
        self._contexts: "OrderedDict[FlowKey, StreamContext]" = OrderedDict()
        self._ages = AgeIndex(self._contexts)
        self.spliced_out = 0
        self.evictions = 0
        #: Running sum of ``context.buffered`` across all contexts, so
        #: the per-packet ``pending_bytes`` checks (flush timer,
        #: header-only DMA budget) never iterate the context table.
        self._pending_bytes = 0

    def __len__(self) -> int:
        return len(self._contexts)

    # ------------------------------------------------------------------
    def feed(self, packet: Packet, now: float = 0.0) -> List[Packet]:
        """Offer one packet; returns segments ready to transmit."""
        ip = packet.ip
        if ip.protocol != IPProto.TCP or ip.more_fragments or ip.fragment_offset > 0:
            return [packet]
        tcp = packet.l4
        # The worker keyed the packet to classify it; only a packet fed
        # here directly still has to derive its key.
        key = packet._fkey
        if key is _UNSET:
            key = packet.flow_key()

        if tcp.flags & _NO_MERGE_FLAGS:
            return self._flush_key(key) + [packet]
        if not packet.payload:
            return [packet]

        context = self._contexts.get(key)
        if context is None:
            return self._open(key, packet, now)

        if tcp.seq == context.next_seq:
            context.append(packet, now)
            self._pending_bytes += len(packet.payload)
            self._contexts.move_to_end(key)
            ages = self._ages
            ages.seq = context.touched = ages.seq + 1
            return self._drain_full(key, context)

        # Out-of-order: flush buffered bytes, then restart at the new seq.
        emitted = self._flush_key(key)
        emitted.extend(self._open(key, packet, now))
        return emitted

    def _open(self, key: FlowKey, packet: Packet, now: float) -> List[Packet]:
        emitted: List[Packet] = []
        if len(self._contexts) >= self.max_contexts:
            evicted_key, _ = next(iter(self._contexts.items()))
            emitted.extend(self._flush_key(evicted_key))
            self.evictions += 1
        context = StreamContext(packet, now)
        self._contexts[key] = context
        context.touched = self._ages.date(key, context)
        self._pending_bytes += context.buffered
        emitted.extend(self._drain_full(key, context))
        return emitted

    def _drain_full(self, key: FlowKey, context: StreamContext) -> List[Packet]:
        """Emit as many exactly-full segments as the buffer allows."""
        emitted: List[Packet] = []
        while context.buffered >= self.target_payload:
            payload = context.take(self.target_payload)
            self._pending_bytes -= len(payload)
            emitted.append(context.make_segment(payload))
            self.spliced_out += 1
        if context.buffered == 0:
            self._contexts.pop(key, None)
        elif emitted and context.created_at != context.last_at:
            # The oldest remaining bytes arrived around the last append.
            context.created_at = context.last_at
            self._ages.date(key, context)
        return emitted

    def _flush_key(self, key: Optional[FlowKey]) -> List[Packet]:
        context = self._contexts.pop(key, None) if key is not None else None
        if context is None or context.buffered == 0:
            return []
        payload = context.take(context.buffered)
        self._pending_bytes -= len(payload)
        self.spliced_out += 1
        return [context.make_segment(payload)]

    # ------------------------------------------------------------------
    def flush(self, key: Optional[FlowKey] = None) -> List[Packet]:
        """Flush one flow, or everything when *key* is None."""
        if key is not None:
            emitted = self._flush_key(key)
        else:
            emitted = []
            for pending_key in list(self._contexts):
                emitted.extend(self._flush_key(pending_key))
        self._ages.compact()
        return emitted

    def flush_older_than(self, now: float, max_age: float) -> List[Packet]:
        """Flush contexts whose *oldest* buffered byte exceeds *max_age*.

        Age-based (not idle-based) flushing is what bounds the latency
        a held byte can accrue: a steady trickle slower than the fill
        rate never goes idle, but its bytes must still ship within the
        merge-delay budget.
        """
        return self._ages.flush_expired(now, max_age, self._flush_key)

    def export_pending(self) -> List[Packet]:
        """Materialized copies of every pending context, non-destructive.

        The live contexts are untouched; see fleet shard checkpoints.
        """
        return [
            context.export_segment()
            for context in self._contexts.values()
            if context.buffered > 0
        ]

    def pending_bytes(self) -> int:
        """Payload bytes currently buffered across all flows (O(1))."""
        return self._pending_bytes
