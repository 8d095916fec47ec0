"""Teeth tests: the oracle must catch planted gateway bugs.

A chaos harness that never fails is worthless.  These tests plant a
known-bad mutation inside the gateway (via ``run_scenario``'s *mutate*
hook), replay a fault schedule that exposes it, and assert the oracle
reports the violation — while the identical schedule against the
unmutated gateway stays green.
"""

from repro.chaos import Fault, FaultPlan, Match, run_scenario
from repro.packet import IPProto

from .conftest import failure_report
from .mutations import (
    break_caravan_split,
    break_merge,
    mis_sized_split,
    mis_sized_split_without_df,
    oversize_egress,
)

# One dropped data segment on the external ingress forces the merge
# engine to see the retransmission out of order.
DROP_ONE_SEGMENT = FaultPlan(
    link_faults=[
        Fault("drop", "ext_in", Match(protocol=IPProto.TCP, min_payload=1), nth=8),
    ]
)


class TestMergeFlushOnReorder:
    def test_clean_gateway_survives_the_schedule(self):
        result = run_scenario("tcp", 7, plan=DROP_ONE_SEGMENT)
        assert result.ok, failure_report(result)

    def test_oracle_catches_hole_papering_merge(self):
        result = run_scenario("tcp", 7, plan=DROP_ONE_SEGMENT, mutate=break_merge)
        assert not result.ok
        kinds = {violation.split(":", 1)[0] for violation in result.violations}
        # The temporal invariant sees the gateway emit sequence ranges it
        # never received; the stream check sees the receiver stall on the
        # unhealable hole.
        assert "tcp-seq-coverage" in kinds, failure_report(result)
        assert "tcp-stream" in kinds, failure_report(result)

    def test_mutated_failure_is_deterministic(self):
        first = run_scenario("tcp", 7, plan=DROP_ONE_SEGMENT, mutate=break_merge)
        second = run_scenario("tcp", 7, plan=DROP_ONE_SEGMENT, mutate=break_merge)
        assert first.violations == second.violations
        assert first.digest == second.digest


class TestCaravanSplitLosesDatagram:
    def test_clean_gateway_survives_fault_free_run(self):
        result = run_scenario("caravan", 5, plan=FaultPlan())
        assert result.ok, failure_report(result)

    def test_oracle_catches_silent_datagram_loss(self):
        result = run_scenario(
            "caravan", 5, plan=FaultPlan(), mutate=break_caravan_split
        )
        assert not result.ok
        kinds = {violation.split(":", 1)[0] for violation in result.violations}
        # No faults were injected, so a missing datagram has nothing to
        # hide behind: both the boundary check and the conservation
        # identity must fire.
        assert "datagram-boundary" in kinds, failure_report(result)
        assert "stats-conservation" in kinds, failure_report(result)


class TestOversizeEgress:
    def test_oracle_catches_frames_above_emtu_on_the_wire(self):
        result = run_scenario("tcp", 7, plan=FaultPlan(), mutate=oversize_egress)
        assert not result.ok
        kinds = {violation.split(":", 1)[0] for violation in result.violations}
        # The link drops every oversize frame before anything receives
        # it, so only the drop-mtu events at the ext_out tap show it.
        assert "mtu" in kinds, failure_report(result)
        assert any(violation.startswith("mtu: ext_out:")
                   for violation in result.violations), failure_report(result)

    def test_oracle_catches_tcp_fragments_of_a_mis_sized_split(self):
        # The real router step: each oversize split is fragmented to the
        # 1500 B wire, so no frame is above any link's MTU.
        result = run_scenario("tcp", 7, plan=FaultPlan(), mutate=mis_sized_split_without_df)
        assert not result.ok
        assert any(violation.startswith("mtu: ext_out: TCP fragment")
                   for violation in result.violations), failure_report(result)
        assert not any("B packet" in violation for violation in result.violations), (
            failure_report(result))

    def test_oracle_catches_frag_needed_for_a_mis_sized_split(self):
        # DF set: the router refuses each oversize split and the inside
        # host's PMTUD absorbs it, so only the gateway's own ICMP shows it.
        result = run_scenario("tcp", 7, plan=FaultPlan(), mutate=mis_sized_split)
        assert not result.ok
        assert all(violation.startswith("mtu: int_in: pxgw sent frag-needed for a ")
                   for violation in result.violations), failure_report(result)
