"""``GatewayWorker.pending()``: what the delayed-merge flush timer reads.

The gateway arms its flush timer, and ``_drain_stalled`` flushes after a
stall window, only while the worker reports pending merge state.
"""

from repro.core import Bound, GatewayConfig, GatewayWorker
from repro.workload import make_tcp_sources, make_udp_sources


def make_worker():
    return GatewayWorker(GatewayConfig(elephant_threshold_packets=1,
                                       hairpin_small_flows=False))


class TestWorkerPending:
    def test_reflects_tcp_merge_state(self):
        worker = make_worker()
        assert not worker.pending()
        source = make_tcp_sources(1, 1448)[0]
        for index in range(3):
            worker.process(source.next_packet(), Bound.INBOUND, now=index * 1e-6)
        assert worker.merge.pending_bytes() > 0
        assert worker.pending()
        worker.end_batch(now=1.0)  # everything has aged past the timeout
        assert not worker.pending()

    def test_reflects_caravan_state(self):
        worker = make_worker()
        source = make_udp_sources(1, 900)[0]
        for index in range(3):
            worker.process(source.next_packet(), Bound.INBOUND, now=index * 1e-6)
        assert worker.caravan_merge.pending_packets() > 0
        assert worker.pending()
        worker.end_batch(now=1.0)
        assert not worker.pending()
