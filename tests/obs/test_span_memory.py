"""Memory ceiling for the span ring.

What one worker call settles is one packed ``bytes`` entry: a keyed
span alone costs about 85 B in the ring (the 77-byte entry and its
deque slot), and a merged output's six parents and child share one
245-byte entry, about 37 B a span.  ``bytes`` are never tracked by the
collector, so filling the ring adds nothing for it to walk.
"""

import gc
import tracemalloc

from repro.obs import SpanTracker
from repro.packet.flow import FlowKey


class _Segment:
    """What the tracker reads of a TCP packet at the seam."""

    is_tcp, is_udp = True, False

    def __init__(self, nbytes, key):
        self.payload = bytes(nbytes)
        self._key = key

    def flow_key(self):
        return self._key

CAPACITY = 8192


def _fill(tracker, start, count):
    """Keyed one-call spans; every residency is exactly 0.5 s, so the
    latency map holds one value however many spans go in."""
    for i in range(start, start + count):
        key = FlowKey(6, 0x0A000001 + i % 251, 40_000 + i % 97, 0x0A000002, 443)
        tracker.sync(float(i), i + 0.5, "forward", flow=key)


def test_a_retained_keyed_span_costs_at_most_96_bytes():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracker = SpanTracker(capacity=CAPACITY)
        _fill(tracker, 0, 4 * CAPACITY)  # the ring wraps three times
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert tracker.shed == 3 * CAPACITY
    assert len(tracker.finished()) == CAPACITY
    assert tracker.finished()[0].sid == 3 * CAPACITY
    assert held / CAPACITY <= 96


def test_the_collector_sees_nothing_new_as_the_ring_fills():
    tracker = SpanTracker(capacity=CAPACITY)
    gc.disable()  # nothing gets untracked behind the count's back
    try:
        before = len(gc.get_objects())
        _fill(tracker, 0, 4 * CAPACITY)
        after = len(gc.get_objects())
    finally:
        gc.enable()
    assert len(tracker.finished()) == CAPACITY
    assert after - before < 64


def test_a_span_a_merged_output_settles_costs_at_most_48_bytes():
    # Six buffered segments, then the output that carries all of their
    # bytes: seven spans, one entry.  Every wait is 0.5 s, so the
    # latency maps hold one value each.
    key = FlowKey(6, 0x0A000001, 40_000, 0x0A000002, 443)
    segment, output = _Segment(1000, key), _Segment(6000, key)
    capacity = 7 * 1170
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracker = SpanTracker(capacity=capacity)
        for i in range(4 * 1170):  # the ring wraps three times
            for _ in range(6):
                tracker.on_packet(None, float(i), None, segment, 0, None, key, None,
                                  "merge", ())
            tracker.on_flush(None, i + 0.5, [output], False)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert tracker.shed == 3 * capacity and tracker.balanced
    assert len(tracker.finished()) == capacity
    assert held / capacity <= 48
