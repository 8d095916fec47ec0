"""Rendezvous steering: determinism, balance, minimal-movement."""

import pytest

from repro.fleet import FleetSteering
from repro.packet import FlowKey, IPProto


def flows(count, salt=0):
    return [
        FlowKey(IPProto.TCP, 0x0A000000 + i, 1000 + salt, 0x0B000000 + (i % 7), 443)
        for i in range(count)
    ]


class TestSteering:
    def test_deterministic_across_instances(self):
        population = flows(500)
        a = FleetSteering(4, seed=9)
        b = FleetSteering(4, seed=9)
        assert [a.shard_for(f) for f in population] == [
            b.shard_for(f) for f in population
        ]

    def test_seed_changes_the_map(self):
        population = flows(200)
        a = FleetSteering(4, seed=1)
        b = FleetSteering(4, seed=2)
        assert [a.shard_for(f) for f in population] != [
            b.shard_for(f) for f in population
        ]

    def test_balance_is_near_uniform(self):
        steering = FleetSteering(4)
        counts = steering.distribution(flows(4000))
        mean = sum(counts) / 4
        for count in counts:
            assert abs(count - mean) / mean < 0.15

    def test_removal_moves_only_the_victims_flows(self):
        steering = FleetSteering(4)
        population = flows(1000)
        before = {f: steering.shard_for(f) for f in population}
        steering.remove(2)
        after = {f: steering.shard_for(f) for f in population}
        for flow in population:
            if before[flow] != 2:
                assert after[flow] == before[flow]
            else:
                assert after[flow] != 2

    def test_cannot_remove_last_shard(self):
        steering = FleetSteering(2)
        steering.remove(0)
        with pytest.raises(ValueError):
            steering.remove(1)
        with pytest.raises(ValueError):
            FleetSteering(0)

    def test_remove_is_idempotent(self):
        steering = FleetSteering(3)
        steering.remove(0)
        steering.remove(0)
        assert steering.live_shards() == [1, 2]

    def test_unkeyed_round_robin_skips_dead_shards(self):
        steering = FleetSteering(3)
        steering.remove(1)
        picks = {steering.shard_for_unkeyed() for _ in range(10)}
        assert picks == {0, 2}

    def test_steered_counters_track_decisions(self):
        steering = FleetSteering(2)
        population = flows(100)
        for flow in population:
            steering.shard_for(flow)
            steering.shard_for(flow)  # a cache hit is a decision too
        assert steering.cache_hits + steering.cache_misses == 200

    def test_cache_hit_miss_counters(self):
        steering = FleetSteering(2)
        population = flows(50)
        for flow in population:
            steering.shard_for(flow)
        assert steering.cache_misses == 50
        assert steering.cache_hits == 0
        for flow in population:
            steering.shard_for(flow)
        assert steering.cache_hits == 50
        assert steering.cache_misses == 50
