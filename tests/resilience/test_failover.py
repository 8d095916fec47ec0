"""Flow-state checkpoint/restore and standby-worker takeover."""

import pytest

from repro.chaos import LinkSpec, WorldSpec, build
from repro.core import Bound, GatewayConfig, GatewayWorker
from repro.resilience import (
    FailoverManager,
    checkpoint_worker,
    restore_worker,
)
from repro.workload import make_tcp_sources, make_udp_sources


def make_worker():
    return GatewayWorker(GatewayConfig(elephant_threshold_packets=1,
                                       hairpin_small_flows=False))


def feed_mid_merge(worker, packets=3, payload=1448):
    """Leave *worker* holding a half-merged TCP stream."""
    source = make_tcp_sources(1, payload)[0]
    fed = 0
    for index in range(packets):
        packet = source.next_packet()
        fed += len(packet.payload)
        worker.process(packet, Bound.INBOUND, now=index * 1e-6)
    assert worker.merge.pending_bytes() > 0
    return fed


class TestCheckpointRestore:
    def test_checkpoint_is_non_destructive(self):
        worker = make_worker()
        feed_mid_merge(worker)
        pending_before = worker.merge.pending_bytes()
        flows_before = len(worker.flows)
        checkpoint = checkpoint_worker(worker, now=1.0)
        # The live worker is untouched: same buffer, same flows, and
        # its conservation identities still balance.
        assert worker.merge.pending_bytes() == pending_before
        assert len(worker.flows) == flows_before
        assert not worker.stats.conservation_errors(
            pending_tcp_bytes=worker.merge.pending_bytes()
        )
        assert checkpoint.pending_tcp_bytes == pending_before
        assert checkpoint.taken_at == 1.0
        assert len(checkpoint.flows) == flows_before

    def test_restore_balances_standby_at_zero_buffered(self):
        worker = make_worker()
        fed = feed_mid_merge(worker)
        checkpoint = checkpoint_worker(worker, now=1.0)
        standby = make_worker()
        flushed = restore_worker(standby, checkpoint)
        assert sum(len(p.payload) for p in flushed) == fed
        # The standby's books balance with *empty* engines: in (from
        # the snapshot) == out (the re-emitted pending segments).
        assert standby.merge.pending_bytes() == 0
        assert not standby.stats.conservation_errors()
        assert standby.stats.tcp_payload_in == fed
        assert standby.stats.tcp_payload_out == fed
        # Flow records survived, so classifier verdicts survive too.
        assert len(standby.flows) == len(worker.flows)
        for restored, original in zip(standby.flows.snapshot(),
                                      worker.flows.snapshot()):
            assert restored == original

    def test_checkpoint_carries_caravan_contexts(self):
        worker = GatewayWorker(GatewayConfig(elephant_threshold_packets=1,
                                             hairpin_small_flows=False))
        source = make_udp_sources(1, 900)[0]
        for index in range(3):
            worker.process(source.next_packet(), Bound.INBOUND, now=index * 1e-6)
        assert worker.caravan_merge.pending_packets() > 0
        checkpoint = checkpoint_worker(worker, now=0.5)
        assert checkpoint.pending_datagrams == worker.caravan_merge.pending_packets()
        standby = make_worker()
        restore_worker(standby, checkpoint)
        assert not standby.stats.conservation_errors()

    def test_empty_worker_checkpoint_is_empty(self):
        checkpoint = checkpoint_worker(make_worker(), now=0.0)
        assert checkpoint.pending == []
        assert checkpoint.flows == []
        standby = make_worker()
        assert restore_worker(standby, checkpoint) == []
        assert not standby.stats.conservation_errors()


class TestFailoverManager:
    def make_world(self):
        world = build(WorldSpec(
            seed=0, hosts=("inside", "outside"),
            links=(LinkSpec("inside", "pxgw", 9000, 10e9, 5e-5),
                   LinkSpec("pxgw", "outside", 1500, 10e9, 5e-5)),
            config=GatewayConfig(elephant_threshold_packets=1,
                                 hairpin_small_flows=False),
            inside=("inside",),
        ))
        return world.topo, world.nodes["inside"], world.nodes["outside"], world.gateway

    def test_takeover_requires_a_checkpoint(self):
        topo, _, _, gateway = self.make_world()
        manager = FailoverManager(gateway)
        with pytest.raises(RuntimeError):
            manager.takeover(fresh_checkpoint=False)
        with pytest.raises(ValueError):
            FailoverManager(gateway, interval=0.0)

    def test_periodic_checkpoints_run_on_the_sim_clock(self):
        topo, _, _, gateway = self.make_world()
        manager = FailoverManager(gateway, interval=0.05).start()
        topo.run(until=0.26)
        assert manager.checkpoints_taken == 6  # t=0 plus 5 ticks
        manager.stop()
        topo.run(until=0.5)
        assert manager.checkpoints_taken == 6

    def test_takeover_mid_merge_flushes_and_conserves(self):
        topo, inside, _, gateway = self.make_world()
        manager = FailoverManager(gateway, interval=0.05).start()

        source = make_tcp_sources(1, 1448, server_net="10.1.0")[0]

        def offer():
            for _ in range(3):
                packet = source.next_packet()
                packet.ip.dst = inside.ip
                for out in gateway.worker.process(packet, Bound.INBOUND,
                                                  now=topo.sim.now):
                    gateway.forward(out)

        topo.sim.schedule_at(0.02, offer)
        topo.run(until=0.03)
        old = gateway.worker
        assert old.merge.pending_bytes() > 0

        replaced = manager.takeover()  # planned: fresh checkpoint
        assert replaced is old
        assert gateway.worker is not old
        assert gateway.worker.index == old.index + 1
        # The standby starts balanced with empty engines; the old
        # worker is returned unperturbed (its buffers intact).
        assert gateway.worker.merge.pending_bytes() == 0
        assert not gateway.worker.stats.conservation_errors()
        assert old.merge.pending_bytes() > 0
        assert manager.takeovers == 1

        # Draining the sim delivers the flushed half-merged bytes to
        # the inside host (forwarded, not dropped) and the standby's
        # books stay balanced.
        topo.run(until=0.1)
        assert not gateway.worker.stats.conservation_errors(
            pending_tcp_bytes=gateway.worker.merge.pending_bytes()
        )

    def test_crash_takeover_resumes_from_last_periodic_capture(self):
        topo, inside, _, gateway = self.make_world()
        manager = FailoverManager(gateway, interval=0.05).start()
        topo.run(until=0.06)  # captures at t=0 and t=0.05
        taken_at = manager.last_checkpoint.taken_at

        source = make_tcp_sources(1, 1448, server_net="10.1.0")[0]
        for _ in range(2):  # arrives after the last capture
            packet = source.next_packet()
            packet.ip.dst = inside.ip
            gateway.worker.process(packet, Bound.INBOUND, now=topo.sim.now)

        manager.takeover(fresh_checkpoint=False)
        # The standby resumed from the stale capture: the post-capture
        # bytes are not replayed (end-to-end retransmission covers
        # them), and the standby still balances.
        assert manager.last_checkpoint.taken_at == taken_at
        assert gateway.worker.stats.tcp_payload_in == 0
        assert not gateway.worker.stats.conservation_errors()

    def test_failover_onto_smaller_standby_trims_to_capacity(self):
        # A standby provisioned with a smaller flow table must end up
        # at its own bound after adopting a bigger checkpoint — the
        # excess is evicted LRU-first, not silently carried over.
        worker = GatewayWorker(GatewayConfig(elephant_threshold_packets=1,
                                             hairpin_small_flows=False))
        sources = make_tcp_sources(10, 1448)
        for index, source in enumerate(sources):
            worker.process(source.next_packet(), Bound.INBOUND,
                           now=index * 1e-3)
        assert len(worker.flows) == 10
        checkpoint = checkpoint_worker(worker, now=0.02)

        standby = GatewayWorker(GatewayConfig(elephant_threshold_packets=1,
                                              hairpin_small_flows=False,
                                              flow_table_capacity=4))
        restore_worker(standby, checkpoint)
        assert len(standby.flows) == 4
        assert standby.flows.evictions == 6
        # The survivors are the most recently seen flows.
        kept = {state.key for state in standby.flows}
        expected = {record[0] for record in checkpoint.flows[-4:]}
        assert kept == expected
        assert not standby.stats.conservation_errors()

    def test_standby_inherits_resilience_hooks(self):
        topo, _, _, gateway = self.make_world()
        cache = gateway.attach_pmtu_cache()
        manager = FailoverManager(gateway).start()
        manager.takeover()
        assert gateway.worker.pmtu_cache is cache

    def test_summary_is_json_friendly(self):
        import json

        topo, _, _, gateway = self.make_world()
        manager = FailoverManager(gateway).start()
        summary = manager.summary()
        json.dumps(summary)
        assert summary["checkpoints_taken"] == 1
        assert summary["last_checkpoint"]["pending_packets"] == 0
