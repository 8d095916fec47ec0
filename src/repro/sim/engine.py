"""A small deterministic discrete-event simulator.

The engine is one binary heap of ``(time, seq, handle, callback, args)``
entries.  Events fire in timestamp order, with a monotonically
increasing sequence number as the tie-breaker so same-time events run
in scheduling order; ``(time, seq)`` is unique, so heap comparisons
never reach the handle or the callback.  Every stochastic component in
the library takes an explicit seeded ``random.Random`` so whole
experiments replay bit-identically.

Cancelling marks the handle and leaves its entry in the heap.  Bulk TCP
cancels an RTO or delayed-ACK timer on almost every segment, long
before its deadline, so dead entries are filtered out once they
outnumber the live ones: the heap holds at most ``2 * pending() + 64``.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["Simulator", "EventHandle"]

_DEAD_SLACK = 64  #: dead entries tolerated however few are live


class EventHandle:
    """A cancellable reference to a scheduled event.

    ``(time, seq)`` is its place in the firing order: events at the same
    timestamp (seeded Netem delay faults routinely collide) fire in
    ``seq``, that is scheduling, order.
    """

    __slots__ = ("time", "seq", "cancelled", "_owner")

    def __init__(self, time: float, seq: int, owner: "Simulator"):
        self.time = time
        self.seq = seq
        self.cancelled = False
        #: ``None`` once the event has fired: a late cancel is a no-op.
        self._owner: Optional[Simulator] = owner

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        owner = self._owner
        if owner is None or self.cancelled:
            return
        self.cancelled = True
        owner._live -= 1
        owner._dead += 1
        if owner._dead > owner._live:  # cheap half of _compact's test: rarely true
            owner._compact()


class Simulator:
    """The event loop shared by all nodes, links, and protocol agents.

    ``now`` is the current simulation time in seconds; the engine is
    its only writer.  ``events_processed`` counts events executed.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self.events_processed = 0
        self._heap: List[Tuple[float, int, Optional[EventHandle], Callable, tuple]] = []
        self._sequence = itertools.count()
        #: Entries neither fired nor cancelled, and cancelled entries
        #: still in the heap: exact, so nothing ever rescans the queue.
        self._live = 0
        self._dead = 0

    def schedule(self, delay: float, callback: Callable, *args: Any) -> EventHandle:
        """Run ``callback(*args)`` *delay* seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        seq = next(self._sequence)
        handle = EventHandle(time, seq, self)
        heappush(self._heap, (time, seq, handle, callback, args))
        self._live += 1
        return handle

    def schedule_at(self, time: float, callback: Callable, *args: Any) -> EventHandle:
        """Run ``callback(*args)`` at absolute simulation *time*."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} (now={self.now})")
        seq = next(self._sequence)
        handle = EventHandle(time, seq, self)
        heappush(self._heap, (time, seq, handle, callback, args))
        self._live += 1
        return handle

    def schedule_fast(self, delay: float, callback: Callable, *args: Any) -> None:
        """Schedule a non-cancellable event *delay* seconds from now.

        Contract (guarded by ``tests/test_sim_engine.py``): no handle is
        returned and the event **cannot be cancelled**, which spares the
        datapath an allocation on every serialize/deliver hop.  It is
        otherwise an ordinary event: counted by ``pending()``, seen by
        ``peek_time()``, fired in exact ``(time, seq)`` order.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        heappush(self._heap, (self.now + delay, next(self._sequence), None, callback, args))
        self._live += 1

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Drain the event queue.

        Stops when the queue empties, when the next event would exceed
        *until*, or after *max_events* events.  Returns the simulation
        time reached.  When *until* is given and nothing at or before it
        is left to fire, the clock is advanced to it, so back-to-back
        ``run`` calls observe continuous time.
        """
        heap = self._heap  # stays valid: compaction is in place
        limit = float("inf") if until is None else until
        stop_after = -1 if max_events is None else max_events
        executed = 0
        try:
            while heap and executed != stop_after:
                if heap[0][0] > limit:
                    break
                time, _seq, handle, callback, args = heappop(heap)
                if handle is not None:
                    if handle.cancelled:
                        self._dead -= 1
                        continue
                    handle._owner = None
                self._live -= 1
                self.now = time
                callback(*args)
                executed += 1
        finally:
            self.events_processed += executed
            self._compact()  # firing shrank the live side of the bound
        if until is not None and self.now < until:
            head = self.peek_time()
            if head is None or head > until:
                self.now = until
        return self.now

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next pending event, or None if idle."""
        heap = self._heap
        while heap:
            handle = heap[0][2]
            if handle is None or not handle.cancelled:
                return heap[0][0]
            heappop(heap)
            self._dead -= 1
        return None

    def pending(self) -> int:
        """Number of (non-cancelled) queued events; an O(1) counter."""
        return self._live

    def _compact(self) -> None:
        """Drop cancelled entries once they outnumber the live ones.

        Filtering in place keeps the list ``run`` is draining; pop order
        depends only on the unique ``(time, seq)`` keys, so rebuilding
        the heap cannot reorder anything.
        """
        if self._dead > _DEAD_SLACK and self._dead > self._live:
            heap = self._heap
            heap[:] = [entry for entry in heap if entry[2] is None or not entry[2].cancelled]
            heapify(heap)
            self._dead = 0
