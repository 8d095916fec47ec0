"""FleetSupervisor drain/removal events become incident bundles when an
incident recorder subscribes (PR 10; through the observer seam since PR 23)."""

from repro.core.config import GatewayConfig
from repro.fleet.chaos import _city_profile
from repro.fleet.fleet import GatewayFleet
from repro.fleet.supervisor import FleetSupervisor
from repro.obs import FlightRecorder, IncidentRecorder, TracePropagation
from repro.workload import CityScaleWorkload


def _loaded_fleet(seed=7, shards=4):
    fleet = GatewayFleet(GatewayConfig(flow_table_capacity=256),
                         shards=shards, steering_seed=seed)
    trace = TracePropagation(seed=seed).attach(fleet)
    stream = list(CityScaleWorkload(_city_profile("mixed", seed)).packets(400))
    fleet.process_stream(stream)
    return fleet, trace


def _recorded(sup, trace):
    return IncidentRecorder(sup, FlightRecorder(name="fleet"), trace=trace)


def test_maintenance_removal_builds_a_bundle():
    fleet, trace = _loaded_fleet()
    sup = FleetSupervisor(fleet).start()
    recorder = _recorded(sup, trace)
    sup.run(0.3)
    sup.maintain_shard(2)
    assert len(recorder.incidents) == 1
    bundle = recorder.incidents[0]
    assert bundle["trigger"]["kind"] == "shard-loss"
    assert bundle["trigger"]["detail"]["mode"] == "maintenance"
    assert bundle["trigger"]["detail"]["shard"] == 2
    assert bundle["trace"]["flows"] and bundle["trace"]["consistent"]
    marks = [e for e in bundle["flight"]["fleet"]["entries"]
             if e["kind"] == "mark"]
    assert any(e["mark"] == "shard-loss" and e["shard"] == 2 for e in marks)


def test_crash_bundle_reports_checkpoint_age():
    fleet, trace = _loaded_fleet()
    sup = FleetSupervisor(fleet).start()
    recorder = _recorded(sup, trace)
    sup.run(0.3)
    sup.crash_shard(1)
    bundle = recorder.incidents[0]
    assert bundle["trigger"]["detail"]["mode"] == "crash"
    assert bundle["trigger"]["detail"]["checkpoint_age"] >= 0.0


def test_supervisor_without_flight_records_nothing():
    fleet, trace = _loaded_fleet()
    sup = FleetSupervisor(fleet).start()
    rebalanced = trace.rebalances
    sup.run(0.3)
    sup.maintain_shard(0)
    assert sup.observers == () and not hasattr(sup, "incidents")
    assert trace.rebalances > rebalanced  # the fleet's own subscriber still hears
