"""Shard checkpoints: what a lost fleet shard leaves for the survivors."""

from repro.core import Bound, GatewayConfig, GatewayWorker, caravan_inner_count
from repro.fleet.fleet import checkpoint_worker
from repro.workload import make_tcp_sources, make_udp_sources


def make_worker():
    return GatewayWorker(GatewayConfig(elephant_threshold_packets=1,
                                       hairpin_small_flows=False))


def feed_mid_merge(worker, packets=3, payload=1448):
    """Leave *worker* holding a half-merged TCP stream."""
    source = make_tcp_sources(1, payload)[0]
    for index in range(packets):
        worker.process(source.next_packet(), Bound.INBOUND, now=index * 1e-6)
    assert worker.merge.pending_bytes() > 0


class TestCheckpoint:
    def test_checkpoint_is_non_destructive(self):
        worker = make_worker()
        feed_mid_merge(worker)
        pending_before = worker.merge.pending_bytes()
        flows_before = len(worker.flows)
        checkpoint = checkpoint_worker(worker)
        # The live worker is untouched: same buffer, same flows, and
        # its conservation identities still balance.
        assert worker.merge.pending_bytes() == pending_before
        assert len(worker.flows) == flows_before
        assert not worker.stats.conservation_errors(
            pending_tcp_bytes=worker.merge.pending_bytes()
        )
        assert sum(len(p.payload) for p in checkpoint.pending if p.is_tcp) == pending_before
        assert len(checkpoint.flows) == flows_before

    def test_checkpoint_carries_caravan_contexts(self):
        worker = make_worker()
        source = make_udp_sources(1, 900)[0]
        for index in range(3):
            worker.process(source.next_packet(), Bound.INBOUND, now=index * 1e-6)
        assert worker.caravan_merge.pending_packets() > 0
        checkpoint = checkpoint_worker(worker)
        assert sum(
            caravan_inner_count(p) for p in checkpoint.pending if p.is_udp
        ) == worker.caravan_merge.pending_packets()
        # What fail_shard does with it: crediting the pending as egress
        # balances the checkpoint's counters with nothing buffered.
        checkpoint.stats.credit_egress(checkpoint.pending)
        assert not checkpoint.stats.conservation_errors()

    def test_empty_worker_checkpoint_is_empty(self):
        checkpoint = checkpoint_worker(make_worker())
        assert checkpoint.pending == []
        assert checkpoint.flows == []
        assert not checkpoint.stats.conservation_errors()
