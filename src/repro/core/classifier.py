"""Traffic classification: separating merge-friendly elephants from mice.

Small, sporadic flows are typically unmergeable — there is rarely a
contiguous successor waiting — yet they consume merge-engine cycles and
pollute contexts.  PXGW classifies flows online and steers mice through
the NIC hairpin path (§3, §4.1).  A flow is promoted to elephant after
``threshold_packets`` arrivals within a sliding window; promotion is
sticky until the flow goes idle.
"""

from __future__ import annotations

from ..packet import Packet
from .flow_table import FlowState, FlowTable

__all__ = ["FlowClassifier"]


class FlowClassifier:
    """Online mouse/elephant classification over a FlowTable."""

    def __init__(
        self,
        table: FlowTable,
        threshold_packets: int = 8,
        window: float = 0.01,
    ):
        self.table = table
        self.threshold_packets = threshold_packets
        self.window = window
        self.promotions = 0

    def observe(self, packet: Packet, now: float = 0.0, size: "int | None" = None) -> FlowState:
        """Account *packet* and return its (possibly promoted) flow state.

        *size* is the packet's ``total_len`` when the caller already
        computed it for its own accounting.
        """
        key = packet.flow_key()
        if key is None:
            raise ValueError("cannot classify a packet without a flow key")
        state = self.table.lookup(key, now)
        if now - state.window_start > self.window:
            state.reset_window(now)
        # FlowState.touch(), without the call: once per keyed packet.
        state.packets += 1
        state.bytes += packet.total_len if size is None else size
        state.last_seen = now
        state.window_packets += 1
        if not state.is_elephant and state.window_packets >= self.threshold_packets:
            state.is_elephant = True
            self.promotions += 1
        return state
