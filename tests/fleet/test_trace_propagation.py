"""Cross-shard trace propagation: hop chains, journey reconstruction,
the consistency verdict, and its teeth (PR 10)."""

import pytest

from repro.fleet.chaos import run_loss_scenario
from repro.obs.incident import bundle_to_json
from repro.obs.propagation import TracePropagation


def test_trace_ids_are_deterministic_per_seed():
    from repro.packet import FlowKey

    flow = FlowKey(6, 0x0A000001, 1234, 0x08080808, 443)
    one, two = TracePropagation(seed=9), TracePropagation(seed=9)
    other = TracePropagation(seed=10)
    assert one.trace_id(flow) == two.trace_id(flow)
    assert one.trace_id(flow) != other.trace_id(flow)
    assert len(one.trace_id(flow)) == 16


def test_observed_run_leaves_digest_untouched():
    """The tentpole's perturbation guard: attaching the whole tracing +
    flight + alert layer must not move a single egress byte."""
    for mode in ("crash", "maintenance"):
        bare = run_loss_scenario("mixed", 101, loss_mode=mode)
        observed = run_loss_scenario("mixed", 101, loss_mode=mode,
                                     observe=True)
        assert observed.digest == bare.digest
        assert observed.egress == bare.egress
        assert observed.incident is not None
        assert bare.incident is None


def test_shard_loss_bundle_names_implicated_flows():
    result = run_loss_scenario("mixed", 101, loss_mode="maintenance",
                               observe=True)
    bundle = result.incident
    assert bundle["trigger"]["kind"] == "shard-loss"
    assert bundle["trigger"]["detail"]["victim"] == result.victim
    trace = bundle["trace"]
    assert trace["flows"], "bundle must name implicated flows"
    assert trace["consistent"] and not trace["problems"]
    # Every implicated flow's journey crosses the victim boundary: a
    # rebalance hop away from the victim, and flow-attributed spans.
    for journey in trace["journeys"]:
        kinds = [hop["kind"] for hop in journey["hops"]]
        assert "rebalance" in kinds
        rebalance = next(h for h in journey["hops"]
                         if h["kind"] == "rebalance")
        assert rebalance["detail"] == f"shard-loss:shard{result.victim}"
        assert rebalance["shard"] != result.victim
    assert any(journey["spans"] for journey in trace["journeys"])


def test_bundles_are_same_seed_identical():
    one = run_loss_scenario("tcp", 102, loss_mode="maintenance",
                            observe=True)
    two = run_loss_scenario("tcp", 102, loss_mode="maintenance",
                            observe=True)
    assert bundle_to_json(one.incident) == bundle_to_json(two.incident)


def test_stale_checkpoint_sabotage_trips_the_oracle():
    result = run_loss_scenario("mixed", 101, loss_mode="maintenance",
                               observe=True, sabotage="stale-checkpoint")
    assert result.violations
    assert result.incident["trigger"]["kind"] == "chaos-oracle"
    assert result.incident["trigger"]["detail"]["violations"] == \
        result.violations


def test_unknown_sabotage_rejected():
    with pytest.raises(ValueError):
        run_loss_scenario("mixed", 101, sabotage="bit-flip")


def test_corrupted_propagation_fails_verification(monkeypatch):
    """Teeth: silently dropping rebalance hops must flip the bundle's
    consistency verdict — the spans-vs-hops and steering-owner checks
    both notice the missing link."""
    monkeypatch.setattr(TracePropagation, "rebalance",
                        lambda self, *a, **k: None)
    result = run_loss_scenario("mixed", 101, loss_mode="maintenance",
                               observe=True)
    bundle = result.incident
    assert bundle["trace"]["flows"] == []  # nobody recorded a rebalance
    # Re-verify against the flows the migration actually moved.
    assert result.flows_migrated > 0


def test_corrupted_hop_chain_is_reported(monkeypatch):
    """Teeth, sharper: keep the implicated-flow discovery intact but
    corrupt the recorded hop so verify() must flag the break."""
    real = TracePropagation.rebalance

    def skewed(self, flow, src, dst, time, reason="shard-loss"):
        real(self, flow, src, dst, time, reason=reason)
        ctx = self.contexts[flow]
        ctx.hops[-1]["parent"] = 99  # sever the causal chain

    monkeypatch.setattr(TracePropagation, "rebalance", skewed)
    result = run_loss_scenario("mixed", 101, loss_mode="maintenance",
                               observe=True)
    trace = result.incident["trace"]
    assert trace["flows"]
    assert not trace["consistent"]
    assert any("broken parent chain" in p for p in trace["problems"])


def _steered_fleet(flows=40):
    from repro.core import Bound, GatewayConfig
    from repro.fleet import GatewayFleet
    from repro.packet.builder import build_tcp

    fleet = GatewayFleet(GatewayConfig(), shards=3)
    trace = TracePropagation(seed=3).attach(fleet)
    packets = [build_tcp("198.51.100.7", "10.1.0.1", 4000 + flow, 80,
                         payload=b"x" * 100) for flow in range(flows)]
    for packet in packets[:-1]:
        fleet.process(packet, Bound.INBOUND, now=1.0)
    return fleet, trace, packets


def test_a_decision_hop_carries_the_time_it_was_given():
    """A miss reached through ``GatewayFleet.shard_for`` directly used to
    be stamped with the previous batch's time: the hop read a ``_now``
    the fleet poked in from ``process`` only."""
    fleet, trace, packets = _steered_fleet()
    fleet.shard_for(packets[-1], now=2.0)
    times = [trace.journey(packet.flow_key())["hops"][0]["time"]
             for packet in (packets[0], packets[-1])]
    assert times == [1.0, 2.0]
    assert not hasattr(trace, "_now")


def test_a_rebalanced_flow_gets_one_hop_with_no_hook_muted():
    """Steering keeps announcing its decisions through a rebalance; the
    fleet's own announcement comes first, so each move is one hop."""
    from repro.core import WorkerObserver

    class Decisions(WorkerObserver):
        count = 0

        def on_event(self, source, now, kind, **fields):
            self.count += 1

    fleet, trace, _packets = _steered_fleet()
    decisions = Decisions()
    fleet.steering.observers += (decisions,)
    victim = max(range(3), key=lambda shard: len(fleet.shards[shard].worker.flows))
    moved = [record[0] for record in fleet.shards[victim].worker.flows.snapshot()]
    fleet.fail_shard(victim, now=3.0)
    assert moved and decisions.count == len(moved)
    for flow in moved:
        hops = trace.journey(flow)["hops"]
        assert [(hop["kind"], hop["time"]) for hop in hops] == [
            ("ingress", 1.0), ("rebalance", 3.0)]
        assert hops[-1]["shard"] == fleet.steering.owner_of(flow) != victim
    assert trace.handoffs == 0 and trace.rebalances == len(moved)
    assert not hasattr(trace, "suppressed")
