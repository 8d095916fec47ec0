"""Memory ceiling for the span ring.

A finished span is one packed ``bytes`` record: a keyed span costs about
88 B in the ring (the 79-byte record and its deque slot).  ``bytes`` are
never tracked by the collector, so filling the ring adds nothing for it
to walk.
"""

import gc
import tracemalloc

from repro.obs import SpanTracker
from repro.packet.flow import FlowKey

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
