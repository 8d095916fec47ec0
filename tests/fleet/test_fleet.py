"""GatewayFleet: steering-consistent datapath, checkpointed shard loss."""

import itertools
import random
from collections import Counter

import pytest

from repro.core import GatewayDatapath
from repro.core.config import Bound, GatewayConfig
from repro.fleet import GatewayFleet
from repro.obs.spans import SpanTracker
from repro.packet import builder
from repro.workload import (
    CityScaleProfile,
    CityScaleWorkload,
    interleave,
    make_tcp_sources,
    make_udp_sources,
)

from ..test_core_datapath import bidirectional_stream


def small_stream(packets=3000, seed=7):
    rng = random.Random(seed)
    sources = make_tcp_sources(12, 1460) + make_udp_sources(4, 1200)
    return [(p, Bound.INBOUND) for p, _tag in interleave(sources, packets, rng)]


def config(**overrides):
    overrides.setdefault("flow_table_capacity", 64)
    return GatewayConfig(**overrides)


class TestFleetDatapath:
    def test_conservation_over_a_mixed_stream(self):
        fleet = GatewayFleet(config(), shards=4)
        out = fleet.process_stream(small_stream())
        assert out
        assert fleet.conservation_errors() == {}
        stats = fleet.combined_stats()
        assert stats.rx_packets == 3000
        assert stats.tcp_payload_in == stats.tcp_payload_out

    def test_flow_affinity_invariant(self):
        fleet = GatewayFleet(config(), shards=4)
        fleet.process_stream(small_stream())
        for shard in fleet.shards:
            for record in shard.worker.flows.snapshot():
                assert fleet.steering.shard_for(record[0]) == shard.id

    def test_one_shard_fleet_is_the_one_worker_datapath(self, monkeypatch):
        # One worker pool: a 1-shard fleet and a 1-worker datapath run
        # the same loop, so a two-way merge+split stream comes out as
        # the same bytes in the same order, counter for counter.
        stream = list(bidirectional_stream(3000, seed=7, flows=8))

        def run(build):
            # Merged packets draw IP IDs from a process-wide counter;
            # restart it so both runs draw the same sequence.
            monkeypatch.setattr(builder, "_ip_id_counter", itertools.count(1))
            engine = build()
            egress = engine.process_stream(stream)
            return engine, [packet.to_bytes() for packet in egress]

        fleet, fleet_wire = run(lambda: GatewayFleet(config(), shards=1))
        datapath, datapath_wire = run(lambda: GatewayDatapath(config(workers=1)))
        stats = datapath.combined_stats()
        assert stats.merged_packets and stats.split_segments
        assert fleet_wire == datapath_wire
        assert vars(fleet.combined_stats()) == vars(stats)
        assert fleet.combined_account().cycles == datapath.combined_account().cycles

    def test_the_fleet_is_a_datapath_and_has_no_loop_of_its_own(self):
        assert isinstance(GatewayFleet(config(), shards=2), GatewayDatapath)
        for name in ("process", "process_stream", "end_batch",
                     "combined_account", "conversion_yield"):
            assert name not in vars(GatewayFleet), name
        assert not hasattr(GatewayFleet, "process_batch")

    def test_span_tracked_fleet_runs_the_bare_fleets_pipeline(self, monkeypatch):
        # One worker pipeline: attaching a SpanTracker to every shard
        # may not change one emitted byte, its position in the egress
        # list, a counter or a charged cycle.
        def run(tracked):
            # Merged packets draw IP IDs from a process-wide counter;
            # restart it so both runs draw the same sequence.
            monkeypatch.setattr(builder, "_ip_id_counter", itertools.count(1))
            fleet = GatewayFleet(config(), shards=4)
            if tracked:
                for shard in fleet.shards:
                    shard.worker.observers = (SpanTracker(),)
            egress = fleet.process_stream(small_stream())
            return fleet, [packet.to_bytes() for packet in egress]

        bare, bare_wire = run(tracked=False)
        tracked, tracked_wire = run(tracked=True)
        assert any(shard.worker.stats.merged_packets for shard in bare.shards)
        assert tracked_wire == bare_wire
        assert vars(tracked.combined_stats()) == vars(bare.combined_stats())
        for a, b in zip(tracked.shards, bare.shards):
            assert a.worker.account.cycles == b.worker.account.cycles

    def test_one_flow_table_lookup_per_keyed_packet(self):
        fleet = GatewayFleet(config(), shards=4)
        stream = small_stream(1500)
        keyed = Counter(
            fleet.steering.shard_for(packet.flow_key()) for packet, _bound in stream
        )
        fleet.process_stream(stream)
        assert sum(keyed.values()) == 1500
        for shard in fleet.shards:
            assert shard.worker.flows.lookups == keyed[shard.id]

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            GatewayFleet(config(), shards=0)
        with pytest.raises(ValueError):
            GatewayConfig(flow_table_capacity=0)

    def test_bounded_tables_evict_under_city_churn(self):
        fleet = GatewayFleet(config(flow_table_capacity=32), shards=2)
        workload = CityScaleWorkload(
            CityScaleProfile(total_flows=2000, concurrency=300, seed=5)
        )
        fleet.process_stream(workload.packets(6000))
        assert fleet.conservation_errors() == {}
        for shard in fleet.shards:
            assert len(shard.worker.flows) <= 32
        assert sum(s.worker.flows.evictions for s in fleet.shards) > 0


class TestShardLoss:
    def test_fresh_checkpoint_loss_is_zero_loss(self):
        stream = small_stream()
        half = len(stream) // 2
        control = GatewayFleet(config(), shards=4)
        control.process_stream(stream)

        fleet = GatewayFleet(config(), shards=4)
        out = fleet.process_stream(stream[:half], final_flush=False)
        out += fleet.fail_shard(2, now=1.0)
        out += fleet.process_stream(stream[half:])
        assert fleet.conservation_errors() == {}
        a, b = control.combined_stats(), fleet.combined_stats()
        for counter in ("rx_packets", "tcp_payload_in", "tcp_payload_out",
                        "udp_datagrams_in", "udp_datagrams_out"):
            assert getattr(a, counter) == getattr(b, counter), counter

    def test_loss_rebalances_flows_onto_owners(self):
        fleet = GatewayFleet(config(), shards=4)
        fleet.process_stream(small_stream(), final_flush=False)
        victim_flows = len(fleet.shards[1].worker.flows)
        assert victim_flows > 0
        fleet.fail_shard(1, now=1.0)
        assert fleet.flows_migrated == victim_flows
        for shard in fleet.live_shards():
            for record in shard.worker.flows.snapshot():
                assert fleet.steering.shard_for(record[0]) == shard.id

    def test_stale_checkpoint_loss_still_balances(self):
        stream = small_stream()
        fleet = GatewayFleet(config(), shards=4)
        fleet.process_stream(stream[:1000], final_flush=False)
        stale = fleet.checkpoint_shard(3)
        fleet.process_stream(stream[1000:2000], final_flush=False)
        fleet.fail_shard(3, now=1.0, checkpoint=stale)
        fleet.process_stream(stream[2000:])
        # Post-checkpoint work on the dead shard is discarded wholesale
        # (retransmission territory), but the books still balance.
        assert fleet.conservation_errors() == {}

    def test_cannot_fail_twice_or_fail_last(self):
        fleet = GatewayFleet(config(), shards=2)
        fleet.process_stream(small_stream(200), final_flush=False)
        fleet.fail_shard(0, now=1.0)
        with pytest.raises(ValueError):
            fleet.fail_shard(0, now=1.1)
        with pytest.raises(ValueError):
            fleet.fail_shard(1, now=1.2)

    def test_retired_aggregate_survives_in_combined_stats(self):
        fleet = GatewayFleet(config(), shards=2)
        fleet.process_stream(small_stream(1000), final_flush=False)
        dead_rx = fleet.shards[0].worker.stats.rx_packets
        assert dead_rx > 0
        fleet.fail_shard(0, now=1.0)
        assert fleet.retired.rx_packets == dead_rx
        assert fleet.combined_stats().rx_packets == 1000
