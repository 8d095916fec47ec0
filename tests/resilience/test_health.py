"""The gateway health state machine: signals, escalation, recovery."""

import pytest

from repro.chaos import LinkSpec, WorldSpec, build
from repro.core import Bound, GatewayConfig, WorkerMode
from repro.packet import TCPFlags, build_tcp
from repro.resilience import HealthMonitor, HealthPolicy, HealthState
from repro.workload import make_tcp_sources


def make_world(**config_kwargs):
    world = build(WorldSpec(
        seed=0, hosts=("inside", "outside"),
        links=(LinkSpec("inside", "pxgw", 9000, 10e9, 5e-5),
               LinkSpec("pxgw", "outside", 1500, 10e9, 5e-5)),
        config=GatewayConfig(elephant_threshold_packets=2, **config_kwargs),
        inside=("inside",),
    ))
    return world.topo, world.nodes["inside"], world.nodes["outside"], world.gateway


FAST = HealthPolicy(heartbeat_interval=0.01, degrade_after=1, bypass_after=3,
                    recover_after=2)


class TestPolicyValidation:
    def test_rejects_bad_thresholds(self):
        with pytest.raises(ValueError):
            HealthPolicy(heartbeat_interval=0.0)
        with pytest.raises(ValueError):
            HealthPolicy(degrade_after=0)
        with pytest.raises(ValueError):
            HealthPolicy(context_pressure=1.5)


class TestSignalsAndTransitions:
    def test_stall_degrades_then_recovers(self):
        topo, _, _, gateway = make_world()
        monitor = HealthMonitor(gateway, policy=FAST).start()
        topo.sim.schedule_at(0.05, gateway.stall, 0.035)
        topo.run(until=0.5)
        states = [(frm, to) for _, frm, to, _ in monitor.transitions]
        assert (HealthState.HEALTHY, HealthState.DEGRADED) in states
        assert monitor.state == HealthState.HEALTHY
        assert monitor.signal_counts.get("stall", 0) >= 1
        # The excursion closed, and within a small multiple of the stall.
        excursions = monitor.excursions()
        assert len(excursions) == 1
        left, back = excursions[0]
        assert back is not None and back - left < 0.2

    def test_long_stall_escalates_to_bypass(self):
        topo, _, _, gateway = make_world()
        monitor = HealthMonitor(gateway, policy=FAST).start()
        topo.sim.schedule_at(0.02, gateway.stall, 0.06)  # spans >3 beats
        topo.run(until=0.5)
        states = [to for _, _, to, _ in monitor.transitions]
        assert HealthState.BYPASS in states
        # Recovery steps down one level at a time: BYPASS -> DEGRADED
        # -> HEALTHY, never a direct jump.
        downs = [(frm, to) for _, frm, to, reason in monitor.transitions
                 if reason == "recovered"]
        assert (HealthState.BYPASS, HealthState.DEGRADED) in downs
        assert (HealthState.DEGRADED, HealthState.HEALTHY) in downs
        assert monitor.state == HealthState.HEALTHY

    def test_conservation_violation_degrades(self):
        topo, _, _, gateway = make_world()
        monitor = HealthMonitor(gateway, policy=FAST).start()
        # Plant a books-don't-balance corruption at t=0.05.
        def corrupt():
            gateway.worker.stats.tcp_payload_in += 999
        def repair():
            gateway.worker.stats.tcp_payload_in -= 999
        topo.sim.schedule_at(0.05, corrupt)
        topo.sim.schedule_at(0.10, repair)
        topo.run(until=0.5)
        assert monitor.signal_counts.get("conservation", 0) >= 1
        assert monitor.state == HealthState.HEALTHY

    def test_context_pressure_degrades_and_mode_switch_flushes(self):
        topo, inside, outside, gateway = make_world()
        monitor = HealthMonitor(gateway, policy=FAST).start()
        gateway.worker.merge.max_contexts = 1

        source = make_tcp_sources(1, 1448, server_net="10.1.0")[0]
        def offer():
            # Promote past the classifier, then leave a partial merge
            # buffered: occupancy hits 1/1 = 100% >= the 90% threshold.
            for _ in range(4):
                packet = source.next_packet()
                packet.ip.dst = inside.ip
                for out in gateway.worker.process(packet, Bound.INBOUND,
                                                  now=topo.sim.now):
                    pass
        topo.sim.schedule_at(0.005, offer)
        topo.run(until=0.3)
        assert monitor.signal_counts.get("context-pressure", 0) >= 1
        # Entering DEGRADED flushed the pending context (degradation
        # loses no bytes), which is also what clears the pressure.
        assert gateway.worker.merge.pending_bytes() == 0
        stats = gateway.worker.stats
        assert stats.tcp_payload_in == stats.tcp_payload_out
        assert monitor.state == HealthState.HEALTHY

    def test_nic_pressure_signal(self):
        topo, inside, _, gateway = make_world(header_only_dma=True)
        monitor = HealthMonitor(gateway, policy=FAST).start()
        gateway.worker.nic_memory_bytes = 0  # everything falls back

        source = make_tcp_sources(1, 1448, server_net="10.1.0")[0]
        def offer():
            for _ in range(4):
                packet = source.next_packet()
                packet.ip.dst = inside.ip
                gateway.worker.process(packet, Bound.INBOUND, now=topo.sim.now)
        topo.sim.schedule_at(0.005, offer)
        topo.run(until=0.1)
        assert monitor.signal_counts.get("nic-pressure", 0) >= 1

    def test_summary_is_json_friendly(self):
        import json

        topo, _, _, gateway = make_world()
        monitor = HealthMonitor(gateway, policy=FAST).start()
        topo.sim.schedule_at(0.02, gateway.stall, 0.03)
        topo.run(until=0.3)
        summary = monitor.summary()
        encoded = json.dumps(summary)
        assert "transitions" in encoded
        assert summary["beats"] > 0

    def test_stop_freezes_state(self):
        topo, _, _, gateway = make_world()
        monitor = HealthMonitor(gateway, policy=FAST).start()
        topo.run(until=0.05)
        beats = monitor.beats
        monitor.stop()
        topo.run(until=0.2)
        assert monitor.beats == beats


class TestWorkerModes:
    def test_degraded_disables_merge_but_conserves(self):
        from repro.core import GatewayWorker

        worker = GatewayWorker(GatewayConfig(elephant_threshold_packets=1,
                                             hairpin_small_flows=False))
        worker.set_mode(WorkerMode.DEGRADED, now=0.0)
        source = make_tcp_sources(1, 1448)[0]
        outs = []
        for index in range(10):
            outs.extend(worker.process(source.next_packet(), Bound.INBOUND,
                                       now=index * 1e-6))
        assert len(outs) == 10, "DEGRADED must pass every packet through"
        assert worker.merge.pending_bytes() == 0
        assert worker.stats.passthrough_packets == 10
        assert not worker.stats.conservation_errors()
        assert all(out.total_len <= 1500 for out in outs)

    def test_degraded_skips_mss_raise_keeps_cap(self):
        from repro.core import GatewayWorker

        worker = GatewayWorker(GatewayConfig())
        worker.set_mode(WorkerMode.DEGRADED, now=0.0)
        syn_in = build_tcp("9.9.9.9", "10.1.0.1", 1, 80, flags=TCPFlags.SYN, mss=1460)
        [out] = worker.process(syn_in, Bound.INBOUND)
        assert out.tcp.mss_option == 1460, "no raise while degraded"
        syn_out = build_tcp("10.1.0.1", "9.9.9.9", 80, 1, flags=TCPFlags.SYN, mss=8960)
        [out] = worker.process(syn_out, Bound.OUTBOUND)
        assert out.tcp.mss_option == 1460, "the cap is mandatory"

    def test_bypass_still_splits_and_opens(self):
        from repro.core import GatewayWorker, encode_caravan
        from repro.packet import build_udp

        worker = GatewayWorker(GatewayConfig())
        worker.set_mode(WorkerMode.BYPASS, now=0.0)
        jumbo = build_tcp("10.1.0.1", "9.9.9.9", 80, 1, payload=b"y" * 8948)
        outs = worker.process(jumbo, Bound.OUTBOUND)
        assert len(outs) > 1 and all(p.total_len <= 1500 for p in outs)

        members = [build_udp("10.1.0.1", "9.9.9.9", 53, 53, payload=b"a" * 100,
                             ip_id=10 + i) for i in range(3)]
        caravan = encode_caravan(members)
        outs = worker.process(caravan, Bound.OUTBOUND)
        assert len(outs) == 3, "BYPASS must still open caravans"
        assert worker.stats.bypassed_packets == 2
        assert not worker.stats.conservation_errors()

    def test_mode_switch_flush_returns_pending(self):
        from repro.core import GatewayWorker

        worker = GatewayWorker(GatewayConfig(elephant_threshold_packets=1,
                                             hairpin_small_flows=False))
        source = make_tcp_sources(1, 1448)[0]
        fed = 0
        for index in range(3):
            packet = source.next_packet()
            fed += len(packet.payload)
            worker.process(packet, Bound.INBOUND, now=index * 1e-6)
        assert worker.merge.pending_bytes() > 0
        flushed = worker.set_mode(WorkerMode.DEGRADED, now=1e-5)
        assert sum(len(p.payload) for p in flushed) == fed
        assert worker.merge.pending_bytes() == 0
        assert not worker.stats.conservation_errors()
        # Returning to NORMAL has nothing to flush.
        assert worker.set_mode(WorkerMode.NORMAL, now=2e-5) == []
        with pytest.raises(ValueError):
            worker.set_mode("bogus", now=0.0)
