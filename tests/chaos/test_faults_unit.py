"""Unit tests for the fault DSL and the oracle's building blocks."""

import pytest

from repro.chaos import (
    Fault,
    FaultLog,
    FaultPlan,
    GatewayFault,
    LinkInjector,
    Match,
    summarize_packet,
    trace_digest,
)
from repro.chaos.oracle import ChaosTap, InvariantOracle, _interval_add, _interval_contains
from repro.packet import IPProto, TCPFlags, build_tcp, build_udp, fragment_packet


def tcp_packet(payload=b"x" * 100, seq=1000, src_port=1234, dst_port=80):
    return build_tcp(
        "10.0.0.1",
        "10.1.0.1",
        src_port,
        dst_port,
        payload=payload,
        seq=seq,
        flags=TCPFlags.ACK,
    )


def udp_packet(payload=b"y" * 400, src_port=5000, dst_port=6000):
    return build_udp("10.0.0.1", "10.1.0.1", src_port, dst_port, payload=payload)


class TestMatch:
    def test_protocol_and_ports(self):
        match = Match(protocol=IPProto.TCP, dst_port=80)
        assert match.matches(tcp_packet())
        assert not match.matches(tcp_packet(dst_port=443))
        assert not match.matches(udp_packet())

    def test_min_payload_excludes_pure_acks(self):
        match = Match(protocol=IPProto.TCP, min_payload=1)
        assert match.matches(tcp_packet())
        assert not match.matches(tcp_packet(payload=b""))

    def test_fragments_opt_in(self):
        fragments = fragment_packet(udp_packet(payload=b"z" * 3000), mtu=1500)
        assert len(fragments) > 1
        assert not Match(protocol=IPProto.UDP).matches(fragments[0])
        assert Match(fragments=True).matches(fragments[0])


class TestFaultValidation:
    def test_rejects_unknown_action(self):
        with pytest.raises(ValueError):
            Fault("explode", "ext_in")

    def test_rejects_zero_nth(self):
        with pytest.raises(ValueError):
            Fault("drop", "ext_in", nth=0)

    def test_rejects_unknown_gateway_kind(self):
        with pytest.raises(ValueError):
            GatewayFault("meltdown", at=0.1)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            GatewayFault("stall", at=0.1, duration=0.0)


class TestLinkInjector:
    def test_drop_hits_exactly_the_nth_match(self):
        fault = Fault("drop", "l", Match(protocol=IPProto.TCP), nth=2)
        injector = LinkInjector([fault])
        first = injector.apply(tcp_packet(seq=1), 0.0)
        second = injector.apply(tcp_packet(seq=2), 0.0)
        third = injector.apply(tcp_packet(seq=3), 0.0)
        assert [len(out) for out in (first, second, third)] == [1, 0, 1]
        assert injector.log.tcp_packets_dropped == 1
        assert injector.log.faults_fired == 1

    def test_duplicate_emits_delayed_copy(self):
        fault = Fault("duplicate", "l", Match(protocol=IPProto.UDP), delay=1e-3)
        out = LinkInjector([fault]).apply(udp_packet(), 0.0)
        assert len(out) == 2
        assert out[0][1] == 0.0 and out[1][1] == 1e-3
        assert out[0][0] is not out[1][0]  # independent copies

    def test_corrupt_udp_flips_and_marks(self):
        fault = Fault("corrupt", "l", Match(protocol=IPProto.UDP))
        injector = LinkInjector([fault])
        original = udp_packet(payload=b"\x00" * 10)
        [(mutated, _)] = injector.apply(original, 0.0)
        assert mutated.payload[0] == 0xFF
        assert mutated.meta.get("chaos_corrupted")
        assert injector.log.udp_datagrams_mutated == 1

    def test_corrupt_tcp_becomes_a_drop(self):
        fault = Fault("corrupt", "l", Match(protocol=IPProto.TCP))
        injector = LinkInjector([fault])
        assert injector.apply(tcp_packet(), 0.0) == []
        assert injector.log.tcp_packets_dropped == 1

    def test_truncate_fixes_lengths(self):
        fault = Fault("truncate", "l", Match(protocol=IPProto.UDP), truncate_to=8)
        [(mutated, _)] = LinkInjector([fault]).apply(udp_packet(), 0.0)
        assert len(mutated.payload) == 8
        assert mutated.udp.length == 16
        assert mutated.ip.total_length == mutated.ip.header_len + 8 + 8
        assert mutated.meta.get("chaos_truncated")

    def test_first_matching_fault_wins(self):
        drop = Fault("drop", "l", Match(protocol=IPProto.TCP), nth=1)
        delay = Fault("delay", "l", Match(protocol=IPProto.TCP), nth=1)
        injector = LinkInjector([drop, delay])
        assert injector.apply(tcp_packet(), 0.0) == []
        # The second fault never saw the packet: its counter is untouched.
        assert injector._seen == [1, 0]


class TestFaultPlan:
    def make_plan(self):
        return FaultPlan(
            link_faults=[
                Fault("drop", "a"),
                Fault("delay", "b"),
            ],
            gateway_faults=[GatewayFault("stall", at=0.1)],
        )

    def test_len_and_describe(self):
        plan = self.make_plan()
        assert len(plan) == 3
        assert "drop@a" in plan.describe()
        assert "stall@t=0.1s" in plan.describe()
        assert FaultPlan().describe() == "(no faults)"

    def test_without_indexes_links_then_gateway(self):
        plan = self.make_plan()
        assert len(plan.without(0).link_faults) == 1
        assert plan.without(2).gateway_faults == []
        assert len(plan) == 3  # original untouched

    def test_subset(self):
        plan = self.make_plan()
        kept = plan.subset([0, 2])
        assert [f.action for f in kept.link_faults] == ["drop"]
        assert [f.kind for f in kept.gateway_faults] == ["stall"]

    def test_injectors_group_by_link_and_share_log(self):
        plan = self.make_plan()
        log = FaultLog()
        injectors = plan.injectors(log)
        assert set(injectors) == {"a", "b"}
        assert injectors["a"].log is injectors["b"].log is log


class TestOracleBuildingBlocks:
    def test_summary_ignores_ip_identification(self):
        a, b = tcp_packet(), tcp_packet()
        assert a.ip.identification != b.ip.identification
        assert summarize_packet(a) == summarize_packet(b)

    def test_summary_sees_chaos_marks(self):
        marked = udp_packet()
        marked.annotate("chaos_corrupted", True)
        assert summarize_packet(marked) != summarize_packet(udp_packet())

    def test_interval_merge_and_containment(self):
        intervals = []
        _interval_add(intervals, 0, 100)
        _interval_add(intervals, 200, 300)
        _interval_add(intervals, 100, 200)  # bridges the gap
        assert intervals == [[0, 300]]
        assert _interval_contains(intervals, 50, 250)
        assert not _interval_contains(intervals, 250, 350)

    def test_trace_digest_is_order_stable(self):
        tap_a, tap_b = ChaosTap("a"), ChaosTap("b")
        tap_a("rx", tcp_packet(), 0.5)
        tap_b("tx", udp_packet(), 0.25)
        assert trace_digest([tap_a, tap_b]) == trace_digest([tap_b, tap_a])

    def test_expect_records_violations(self):
        oracle = InvariantOracle()
        assert oracle.expect(True, "x", "fine")
        assert not oracle.expect(False, "mtu", "too big")
        assert oracle.checks_run == 2
        assert oracle.violations == ["mtu: too big"]
        assert not oracle.ok

    def test_seq_coverage_flags_unreceived_bytes(self):
        ingress, egress = ChaosTap("in"), ChaosTap("out")
        ingress("rx", tcp_packet(seq=0, payload=b"x" * 100), 0.001)
        # Emitting [0, 100) is fine; emitting [100, 200) was never seen.
        egress("tx", tcp_packet(seq=0, payload=b"x" * 100), 0.002)
        egress("tx", tcp_packet(seq=100, payload=b"x" * 100), 0.003)
        oracle = InvariantOracle()
        oracle.check_tcp_seq_coverage(ingress, egress)
        assert len(oracle.violations) == 1
        assert oracle.violations[0].startswith("tcp-seq-coverage")

    def test_datagram_budgets(self):
        oracle = InvariantOracle()
        oracle.check_datagram_flow("f", [b"a", b"b"], [b"a"], loss_budget=1)
        assert oracle.ok
        oracle.check_datagram_flow("g", [b"a"], [b"a", b"zzz"])
        assert any(v.startswith("datagram-boundary") for v in oracle.violations)
