"""Tests for workload generators and the parallel-connection CPU model."""

import random

import pytest

from repro.cpu import XEON_5512U
from repro.packet import Packet
from repro.net import Topology
from repro.workload import (
    IperfResult,
    ParallelDownloadModel,
    SessionConfig,
    TcpStreamSource,
    UdpStreamSource,
    elephant_mice_split,
    interleave,
    lognormal_flow_sizes,
    make_tcp_sources,
    make_udp_sources,
    pareto_flow_sizes,
    poisson_arrivals,
    run_tcp_flow,
)


class TestStreams:
    def test_tcp_source_is_in_order(self):
        source = TcpStreamSource("1.1.1.1", "2.2.2.2", 1000, 80, payload_size=1448)
        packets = [source.next_packet() for _ in range(5)]
        assert [p.tcp.seq for p in packets] == [0, 1448, 2896, 4344, 5792]
        assert all(len(p.payload) == 1448 for p in packets)

    def test_udp_source_consecutive_ids(self):
        source = UdpStreamSource("1.1.1.1", "2.2.2.2", 1000, 80, payload_size=1200)
        packets = [source.next_packet() for _ in range(4)]
        ids = [p.ip.identification for p in packets]
        assert ids == [ids[0], ids[0] + 1, ids[0] + 2, ids[0] + 3]

    def test_interleave_emits_exact_count(self):
        sources = make_tcp_sources(10, 1448)
        stream = list(interleave(sources, 500, random.Random(1), mean_run=8))
        assert len(stream) == 500
        assert all(isinstance(p, Packet) for p, _tag in stream)

    def test_interleave_deterministic_under_seed(self):
        def run(seed):
            sources = make_tcp_sources(5, 1448)
            return [p.tcp.seq for p, _ in interleave(sources, 100, random.Random(seed))]

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_mean_run_controls_contiguity(self):
        def mean_run_length(mean_run):
            sources = make_tcp_sources(8, 1448)
            stream = [p.flow_key() for p, _ in
                      interleave(sources, 4000, random.Random(2), mean_run=mean_run)]
            runs, current = [], 1
            for previous, packet in zip(stream, stream[1:]):
                if packet == previous:
                    current += 1
                else:
                    runs.append(current)
                    current = 1
            return sum(runs) / len(runs)

        assert mean_run_length(16) > 3 * mean_run_length(1)

    def test_tags_follow_sources(self):
        sources = make_tcp_sources(3, 1448, tag="down") + make_tcp_sources(
            3, 8948, tag="up", base_port=9000)
        stream = list(interleave(sources, 200, random.Random(3)))
        tags = {tag for _p, tag in stream}
        assert tags == {"down", "up"}

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            TcpStreamSource("1.1.1.1", "2.2.2.2", 1, 2, payload_size=0)
        with pytest.raises(ValueError):
            list(interleave([], 10, random.Random(0)))
        sources = make_tcp_sources(1, 100)
        with pytest.raises(ValueError):
            list(interleave(sources, 10, random.Random(0), mean_run=0.5))


class TestParallelDownloadModel:
    def model(self):
        return ParallelDownloadModel(XEON_5512U)

    def test_single_session_usage_near_paper(self):
        model = self.model()
        jumbo = model.cpu_usage(1, SessionConfig.single_jumbo())
        parallel = model.cpu_usage(1, SessionConfig.axel_parallel())
        # Paper: 20.20 % vs 19.52 % — both near 20 %, nearly equal.
        assert 0.15 < jumbo < 0.25
        assert 0.15 < parallel < 0.25
        assert abs(jumbo - parallel) < 0.05

    def test_hundred_sessions_parallel_saturates(self):
        model = self.model()
        assert model.cpu_usage(100, SessionConfig.axel_parallel()) == 1.0
        assert model.cpu_usage(100, SessionConfig.single_jumbo()) < 0.45

    def test_ratio_at_hundred_sessions_matches_paper(self):
        # Paper: 2.88x more CPU for parallel connections at 100 sessions.
        ratio = self.model().cpu_ratio(100)
        assert 2.4 < ratio < 3.4

    def test_usage_monotonic_in_sessions(self):
        model = self.model()
        for config in (SessionConfig.single_jumbo(), SessionConfig.axel_parallel()):
            usages = [model.cpu_usage(s, config) for s in (1, 10, 100)]
            assert usages == sorted(usages)

    def test_more_acks_for_small_mss(self):
        model = self.model()
        small = model.base_cycles_per_second(SessionConfig(connections=1, mss=1448))
        large = model.base_cycles_per_second(SessionConfig(connections=1, mss=8948))
        assert small > large

    def test_invalid_sessions(self):
        with pytest.raises(ValueError):
            self.model().cpu_usage(0, SessionConfig.single_jumbo())


class TestDistributions:
    def test_pareto_heavy_tail(self):
        sizes = pareto_flow_sizes(5000, random.Random(1))
        elephants, mice = elephant_mice_split(sizes)
        assert mice > elephants  # most flows are small
        assert max(sizes) > 100 * min(sizes)  # but the tail is long

    def test_lognormal_positive(self):
        sizes = lognormal_flow_sizes(100, random.Random(2))
        assert all(size >= 1 for size in sizes)

    def test_poisson_arrivals_increasing(self):
        times = poisson_arrivals(100, random.Random(3), rate_per_sec=1000.0)
        assert all(b > a for a, b in zip(times, times[1:]))
        assert times[-1] == pytest.approx(0.1, rel=0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            pareto_flow_sizes(1, random.Random(0), alpha=0)
        with pytest.raises(ValueError):
            poisson_arrivals(1, random.Random(0), rate_per_sec=0)


class TestIperf:
    def test_run_tcp_flow_measures_goodput(self):
        topo = Topology()
        client = topo.add_host("client")
        server = topo.add_host("server")
        router = topo.add_router("router")
        topo.link(client, router, bandwidth_bps=1e9)
        topo.link(router, server, bandwidth_bps=1e9)
        topo.build_routes()
        result = run_tcp_flow(topo, client, server, duration=1.0)
        assert isinstance(result, IperfResult)
        assert result.throughput_bps > 50e6
        assert result.client_mss == 1460
