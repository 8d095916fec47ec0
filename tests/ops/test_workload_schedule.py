"""The extracted workload schedule: byte-identity and injectability.

The twin-world contract rests on two properties proven here: the
default schedule reproduces the historical observed-world workload
*byte-for-byte* (so every pinned digest survives the refactor), and an
explicitly supplied schedule/config reaches the world unchanged.
"""

from repro.obs import default_workload_schedule, run_observed_world
from repro.chaos.world import EMTU, IMTU
from repro.obs.world import WorkloadSchedule


def test_default_schedule_reproduces_historical_workload():
    schedule = default_workload_schedule(seed=0)
    assert schedule.download_bytes == 48_000
    assert schedule.upload_bytes == 24_000
    assert schedule.inbound_payloads == tuple(
        bytes([1, i & 0xFF]) * 500 for i in range(24))
    assert schedule.inbound_bursts == ((0.30, 0, 12), (0.60, 12, 12))
    assert schedule.outbound_payloads == tuple(
        bytes([2, i & 0xFF]) * 600 for i in range(12))
    assert schedule.outbound_at == 0.70
    assert schedule.probe_at == 0.40
    assert schedule.takeover_at == 0.9
    assert schedule.settle_until == 0.2
    assert schedule.horizon == 3.0


def test_explicit_default_schedule_is_byte_identical_to_implicit():
    implicit = run_observed_world(seed=0)
    explicit = run_observed_world(
        seed=0, schedule=default_workload_schedule(seed=0))
    assert (implicit.obs.registry.to_prometheus_text()
            == explicit.obs.registry.to_prometheus_text())
    assert implicit.obs.tracer.sequence() == explicit.obs.tracer.sequence()
    assert implicit.timeline.to_json() == explicit.timeline.to_json()
    assert implicit.alerts.to_json() == explicit.alerts.to_json()
    assert implicit.notes == explicit.notes


def test_same_schedule_object_reusable_across_worlds():
    schedule = default_workload_schedule(seed=0)
    first = run_observed_world(seed=0, schedule=schedule)
    second = run_observed_world(seed=0, schedule=schedule)
    assert (first.obs.registry.to_prometheus_text()
            == second.obs.registry.to_prometheus_text())


def test_schedule_to_dict_is_json_safe_description():
    doc = default_workload_schedule(seed=0).to_dict()
    assert doc["inbound_datagrams"] == 24
    assert doc["outbound_datagrams"] == 12
    assert doc["offered_bytes"] == 48_000 + 24_000 + 24 * 1000 + 12 * 1200
    assert not any(isinstance(v, bytes) for v in doc.values())


def test_probe_and_takeover_are_skippable():
    schedule = WorkloadSchedule(
        download_bytes=10_000, upload_bytes=0,
        probe_at=None, takeover_at=None, horizon=1.0,
    )
    world = run_observed_world(seed=0, schedule=schedule)
    assert world.notes["pmtu"] is None
    assert world.failover.takeovers == 0
    assert world.notes["downloaded"] == 10_000
    assert world.notes["datagrams_in"] == 0


def test_injected_config_reaches_the_gateway():
    from repro.core import GatewayConfig

    config = GatewayConfig(imtu=9000, emtu=1500, merge_timeout=0.25)
    world = run_observed_world(seed=0, config=config)
    assert world.gateway.config is config
    assert world.config is config


def test_world_exposes_links_by_role():
    world = run_observed_world(
        seed=0,
        schedule=WorkloadSchedule(download_bytes=1000, upload_bytes=0,
                                  probe_at=None, takeover_at=None,
                                  horizon=0.5),
    )
    assert set(world.links) == {"int_out", "int_in", "ext_out", "ext_in"}
    assert world.links["int_out"].mtu == IMTU
    assert world.links["ext_out"].mtu == EMTU


def test_snapshot_at_captures_monotone_counters():
    world = run_observed_world(seed=0, snapshot_at=(1.0, 2.0))
    assert set(world.snapshots) == {1.0, 2.0}
    rx = 'px_gateway_rx_packets_total{gateway="pxgw"}'
    early, late = world.snapshots[1.0], world.snapshots[2.0]
    final = world.obs.registry.snapshot()
    assert 0 < early[rx] <= late[rx] <= final[rx]


def test_mutate_hook_runs_before_any_traffic():
    seen = {}

    def mutate(world):
        seen["now"] = world.topo.sim.now
        seen["rx"] = world.obs.registry.snapshot().get(
            'px_gateway_rx_packets_total{gateway="pxgw"}', 0.0)
        seen["links"] = set(world.links)

    run_observed_world(seed=0, mutate=mutate)
    assert seen["now"] == 0.0
    assert seen["rx"] == 0.0
    assert seen["links"] == {"int_out", "int_in", "ext_out", "ext_in"}
