"""The PXGW flow table: per-flow state, LRU eviction, and the classifier.

One lookup happens per received packet, so the table is an OrderedDict
LRU keyed by the 5-tuple NamedTuple, and that lookup also classifies:
small, sporadic flows are rarely mergeable, so PXGW steers mice through
the NIC hairpin path (§3, §4.1).  A flow is promoted to elephant after
``threshold_packets`` arrivals within a sliding ``window``; promotion is
sticky until the flow goes idle.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Optional

from ..packet import FlowKey

__all__ = ["FlowState", "FlowTable"]


class FlowState:
    """Mutable per-flow record."""

    __slots__ = ("key", "packets", "bytes", "first_seen", "last_seen",
                 "is_elephant", "window_packets", "window_start")

    def __init__(self, key: FlowKey, now: float):
        self.key = key
        self.packets = 0
        self.bytes = 0
        self.first_seen = now
        self.last_seen = now
        self.is_elephant = False
        self.window_packets = 0
        self.window_start = now

    def touch(self, total_len: int, now: float) -> None:
        """Account one packet of this flow."""
        self.packets += 1
        self.bytes += total_len
        self.last_seen = now
        self.window_packets += 1

    def reset_window(self, now: float) -> None:
        """Start a new classification window."""
        self.window_packets = 0
        self.window_start = now


class FlowTable:
    """LRU-bounded flow state store with online mouse/elephant classification."""

    def __init__(self, capacity: int = 1_000_000,
                 on_evict: Optional[Callable[[FlowState], None]] = None,
                 threshold_packets: int = 8, window: float = 0.01):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.on_evict = on_evict
        self.threshold_packets = threshold_packets
        self.window = window
        self._flows: "OrderedDict[FlowKey, FlowState]" = OrderedDict()
        self.lookups = 0
        self.misses = 0
        self.evictions = 0
        self.promotions = 0

    def __len__(self) -> int:
        return len(self._flows)

    def __contains__(self, key: FlowKey) -> bool:
        return key in self._flows

    def lookup(self, key: FlowKey, now: float = 0.0) -> FlowState:
        """Find or create the flow record for *key*."""
        self.lookups += 1
        state = self._flows.get(key)
        if state is None:
            self.misses += 1
            state = FlowState(key, now)
            if len(self._flows) >= self.capacity:
                _evicted_key, evicted = self._flows.popitem(last=False)
                self.evictions += 1
                if self.on_evict:
                    self.on_evict(evicted)
            self._flows[key] = state
        else:
            self._flows.move_to_end(key)
        return state

    def observe(self, key: FlowKey, size: int, now: float = 0.0) -> FlowState:
        """Account one *size*-byte packet of *key*'s flow; returns its
        (possibly promoted) record.  A miss inserts via :meth:`lookup`."""
        flows = self._flows
        state = flows.get(key)
        if state is None:
            state = self.lookup(key, now)
        else:
            self.lookups += 1
            flows.move_to_end(key)
        if now - state.window_start > self.window:
            state.reset_window(now)
        # FlowState.touch(), without the call: once per keyed packet.
        state.packets += 1
        state.bytes += size
        state.last_seen = now
        state.window_packets += 1
        if not state.is_elephant and state.window_packets >= self.threshold_packets:
            state.is_elephant = True
            self.promotions += 1
        return state

    def peek(self, key: FlowKey) -> Optional[FlowState]:
        """Return the record without creating or promoting it."""
        return self._flows.get(key)

    def snapshot(self) -> list:
        """Serialize every flow record, preserving LRU order.

        The result is plain tuples (no live references), safe to hold
        across arbitrary simulated time for a fleet shard checkpoint.
        """
        return [
            (state.key, state.packets, state.bytes, state.first_seen,
             state.last_seen, state.is_elephant, state.window_packets,
             state.window_start)
            for state in self._flows.values()
        ]

    def adopt(self, records: list) -> int:
        """Merge snapshot *records* into the table; returns count added.

        The rebalance path: a lost shard's flow records are adopted by
        the survivors that now own those flows.  Keys already present
        keep their live state (it is fresher than any checkpoint);
        adopted records enter at the MRU end in record order, and the
        capacity bound is enforced by LRU eviction through
        ``on_evict``.
        """
        adopted = 0
        for record in records:
            if record[0] in self._flows:
                continue
            if len(self._flows) >= self.capacity:
                _evicted_key, evicted = self._flows.popitem(last=False)
                self.evictions += 1
                if self.on_evict:
                    self.on_evict(evicted)
            self._flows[record[0]] = self._inflate(record)
            adopted += 1
        return adopted

    @staticmethod
    def _inflate(record: tuple) -> FlowState:
        """Rebuild one FlowState from its snapshot() tuple."""
        (key, packets, nbytes, first_seen, last_seen,
         is_elephant, window_packets, window_start) = record
        state = FlowState(key, first_seen)
        state.packets = packets
        state.bytes = nbytes
        state.last_seen = last_seen
        state.is_elephant = is_elephant
        state.window_packets = window_packets
        state.window_start = window_start
        return state

    def expire_idle(self, now: float, idle_timeout: float) -> int:
        """Drop flows idle past *idle_timeout*; returns count removed.

        Expiry is an eviction: it leaves the table through ``on_evict``
        and counts toward ``evictions``, so the exported eviction
        metrics cover idle churn, not just capacity pressure.
        """
        stale = [key for key, state in self._flows.items()
                 if now - state.last_seen > idle_timeout]
        for key in stale:
            state = self._flows.pop(key)
            self.evictions += 1
            if self.on_evict:
                self.on_evict(state)
        return len(stale)
