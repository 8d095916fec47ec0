"""An empty timeout flush must not cost more with more live contexts.

Every poll batch ends in ``flush_older_than``; with nothing expired it
looks at the head of the age index and returns.  The full-table scan it
replaced cost ~64× more at 4096 contexts than at 64.  This is a
same-process ratio with min-of-N timing, so host speed cancels out.
"""

import time

import pytest

from repro.core.caravan import CaravanMergeEngine
from repro.core.tcp_merge import TcpMergeEngine
from repro.packet import TCPFlags, build_tcp, build_udp


def _tcp(contexts):
    engine = TcpMergeEngine(8948, max_contexts=contexts)
    for flow in range(contexts):
        engine.feed(build_tcp(0x0A000000 + flow, "10.1.0.9", 5000, 80,
                              payload=b"x" * 100, flags=TCPFlags.ACK), now=1.0)
    return engine


def _caravan(contexts):
    engine = CaravanMergeEngine(8972, max_contexts=contexts)
    for flow in range(contexts):
        engine.feed(build_udp(0x0A000000 + flow, "10.1.0.9", 5000, 443,
                              payload=b"x" * 100), now=1.0)
    return engine


def _empty_flush_seconds(engine):
    best = float("inf")
    for _ in range(7):
        start = time.perf_counter()
        for _ in range(200):
            engine.flush_older_than(1.0005, 0.001)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("build", [_tcp, _caravan])
def test_empty_flush_cost_does_not_grow_with_live_contexts(build):
    small, large = build(64), build(4096)
    assert len(small) == 64 and len(large) == 4096
    assert _empty_flush_seconds(large) < 8 * _empty_flush_seconds(small)
    assert len(large) == 4096  # nothing was old enough
