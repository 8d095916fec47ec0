"""Tests for the multi-core gateway datapath (worker + RSS dispatch)."""

import random

from repro.core import Bound, GatewayConfig, GatewayDatapath, GatewayWorker
from repro.cpu import XEON_6554S
from repro.packet import TCPFlags, build_tcp
from repro.workload import interleave, make_tcp_sources


def bidirectional_stream(total, seed=1, mean_run=24.0, flows=50):
    down = make_tcp_sources(flows, 1448, tag=Bound.INBOUND)
    up = make_tcp_sources(flows, 8948, tag=Bound.OUTBOUND, base_port=30000,
                          client_net="10.1.0", server_net="198.51.100")
    return interleave(down * 6 + up, total, random.Random(seed), mean_run)


class TestGatewayWorker:
    def test_syn_takes_slow_path_and_clamps(self):
        worker = GatewayWorker(GatewayConfig())
        syn = build_tcp("9.9.9.9", "10.1.0.1", 1, 80, flags=TCPFlags.SYN, mss=1460)
        [out] = worker.process(syn, Bound.INBOUND)
        assert out.tcp.mss_option == 8960
        assert worker.stats.mss_rewrites == 1

    def test_mouse_flow_hairpinned(self):
        worker = GatewayWorker(GatewayConfig())
        packet = build_tcp("9.9.9.9", "10.1.0.1", 1, 80, payload=b"x" * 100)
        outs = worker.process(packet, Bound.INBOUND)
        assert outs == [packet]
        assert worker.stats.hairpinned == 1
        assert worker.account.breakdown == {}  # the worker keeps no breakdown

    def test_elephant_promoted_then_merged(self):
        worker = GatewayWorker(GatewayConfig(elephant_threshold_packets=2))
        source = make_tcp_sources(1, 1448)[0]
        outputs = []
        for index in range(20):
            outputs.extend(worker.process(source.next_packet(), Bound.INBOUND,
                                          now=index * 1e-6))
        spliced = [p for p in outputs if p.meta.get("spliced")]
        assert spliced
        assert all(p.total_len == 9000 for p in spliced)

    def test_promotion_lands_on_the_threshold_packet(self):
        # Mid-stream promotion: with every packet at one ``now`` (one
        # poll batch), packet number ``elephant_threshold_packets`` is
        # the first that is not hairpinned.
        threshold = 5
        worker = GatewayWorker(GatewayConfig(elephant_threshold_packets=threshold))
        source = make_tcp_sources(1, 1448)[0]
        hairpinned = []
        for _ in range(threshold + 3):  # threshold - 1 mice, then 4 elephants
            before = worker.stats.hairpinned
            worker.process(source.next_packet(), Bound.INBOUND)
            hairpinned.append(worker.stats.hairpinned - before)
        assert hairpinned == [1] * (threshold - 1) + [0] * 4
        assert worker.flows.promotions == 1

    def test_outbound_jumbo_split(self):
        worker = GatewayWorker(GatewayConfig(hairpin_small_flows=False))
        packet = build_tcp("10.1.0.1", "9.9.9.9", 80, 1, payload=b"y" * 8948)
        outs = worker.process(packet, Bound.OUTBOUND)
        assert len(outs) == 7
        assert all(p.total_len <= 1500 for p in outs)

    def test_header_only_dma_reduces_mem_traffic(self):
        def mem_for(config):
            worker = GatewayWorker(config)
            packet = build_tcp("10.1.0.1", "9.9.9.9", 80, 1, payload=b"z" * 8948)
            worker.process(packet, Bound.OUTBOUND)
            return worker.account.mem_bytes

        full = mem_for(GatewayConfig(hairpin_small_flows=False))
        hdo = mem_for(GatewayConfig(hairpin_small_flows=False, header_only_dma=True))
        assert hdo < full / 5

    def test_baseline_charges_software_gro(self):
        worker = GatewayWorker(GatewayConfig(baseline_gro=True, hairpin_small_flows=False,
                                             delayed_merge=False))
        source = make_tcp_sources(1, 1448)[0]
        outputs = []
        for _ in range(10):
            outputs += worker.process(source.next_packet(), Bound.INBOUND)
        outputs += worker.end_batch(0.0)
        # Per input: classify 18, rx 75, software GRO 2500; per merged
        # output (one full at the iMTU, one flushed): flush 60, tx 62.
        assert len(outputs) == 2
        assert worker.account.cycles == 10 * (18 + 75 + 2500) + 2 * (60 + 62)
        assert worker.account.breakdown == {}


class TestGatewayDatapath:
    def test_flow_affinity_to_workers(self):
        dp = GatewayDatapath(GatewayConfig())
        source = make_tcp_sources(1, 1448)[0]
        first = dp.worker_for(source.next_packet())
        for _ in range(10):
            assert dp.worker_for(source.next_packet()) is first

    def test_flows_spread_over_workers(self):
        dp = GatewayDatapath(GatewayConfig(workers=8))
        sources = make_tcp_sources(200, 1448)
        used = {dp.worker_for(s.next_packet()).index for s in sources}
        assert len(used) == 8

    def test_stream_processing_yield_and_throughput(self):
        dp = GatewayDatapath(GatewayConfig())
        dp.process_stream(bidirectional_stream(20000), final_flush=False)
        dp.reset_measurement()
        dp.process_stream(bidirectional_stream(30000, seed=2), final_flush=False)
        assert dp.conversion_yield > 0.85
        tput = dp.sustainable_throughput_bps(XEON_6554S)
        assert 500e9 < tput < 2e12

    def test_px_beats_baseline_on_both_axes(self):
        def run(config):
            dp = GatewayDatapath(config)
            dp.process_stream(bidirectional_stream(15000), final_flush=False)
            dp.reset_measurement()
            dp.process_stream(bidirectional_stream(25000, seed=3), final_flush=False)
            return dp.sustainable_throughput_bps(XEON_6554S), dp.conversion_yield

        px_tput, px_yield = run(GatewayConfig())
        base_tput, base_yield = run(
            GatewayConfig(baseline_gro=True, delayed_merge=False,
                          hairpin_small_flows=False)
        )
        assert px_tput > 3 * base_tput
        assert px_yield > base_yield

    def test_header_only_dma_raises_throughput(self):
        # At scale PX is memory-bandwidth bound; header-only DMA lifts
        # that bound (Figure 5a's 1.09 -> 1.45 Tbps step).
        def run(config):
            dp = GatewayDatapath(config)
            dp.process_stream(bidirectional_stream(15000, flows=200),
                              final_flush=False)
            dp.reset_measurement()
            dp.process_stream(bidirectional_stream(30000, seed=5, flows=200),
                              final_flush=False)
            return dp.sustainable_throughput_bps(XEON_6554S)

        assert run(GatewayConfig(header_only_dma=True)) > 1.1 * run(GatewayConfig())

    def test_reset_measurement_keeps_merge_state(self):
        dp = GatewayDatapath(GatewayConfig())
        dp.process_stream(bidirectional_stream(5000), final_flush=False)
        pending_before = sum(w.merge.pending_bytes() for w in dp.workers)
        dp.reset_measurement()
        assert dp.combined_account().cycles == 0
        assert sum(w.merge.pending_bytes() for w in dp.workers) == pending_before

    def test_delayed_merge_improves_yield(self):
        def run(delayed):
            config = GatewayConfig(delayed_merge=delayed, hairpin_small_flows=False)
            dp = GatewayDatapath(config)
            dp.process_stream(bidirectional_stream(15000), final_flush=False)
            dp.reset_measurement()
            dp.process_stream(bidirectional_stream(25000, seed=4), final_flush=False)
            return dp.conversion_yield

        assert run(True) > run(False) + 0.1
