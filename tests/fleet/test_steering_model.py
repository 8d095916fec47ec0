"""The steering miss path against brute-force models.

``flow_hash`` reads the per-byte Toeplitz tables straight from a flow
key's four fields, and ``FleetSteering._scan`` writes SplitMix64 out
inline.  Here the first is held to the packed-bytes hash and to the
bit-by-bit definition, and the second to a brute-force ``max`` over the
live shards of ``mix64(flow_hash ^ seed)``, while a Hypothesis machine
removes shards: the scan, the cache and every answer agree with the
model after each step, and a removal moves only the removed shard's
flows.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, precondition, rule

from repro.fleet import FleetSteering
from repro.nic.rss import DEFAULT_RSS_KEY, flow_hash, mix64, toeplitz_hash
from repro.packet import FlowKey

from ..test_nic_rss_dma_queues import flow_hash_bitwise, toeplitz_bitwise

_U32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
_U16 = st.integers(min_value=0, max_value=0xFFFF)
_FLOWS = st.builds(FlowKey, st.sampled_from([6, 17]), _U32, _U16, _U32, _U16)


def _packed(flow):
    return struct.pack("!IIHH", flow.src_ip, flow.dst_ip, flow.src_port, flow.dst_port)


@settings(max_examples=300, deadline=None)
@given(flow=_FLOWS, rss_key=st.binary(min_size=16, max_size=52))
def test_flow_hash_is_the_toeplitz_hash_of_the_packed_tuple(flow, rss_key):
    expected = toeplitz_bitwise(_packed(flow), rss_key)
    assert toeplitz_hash(_packed(flow), rss_key) == expected
    assert flow_hash(flow, rss_key) == expected


@settings(max_examples=50, deadline=None)
@given(flow=_FLOWS, rss_key=st.binary(max_size=15))
def test_a_key_shorter_than_sixteen_bytes_is_refused(flow, rss_key):
    with pytest.raises(ValueError):
        flow_hash(flow, rss_key)
    with pytest.raises(ValueError):
        toeplitz_hash(_packed(flow), rss_key)


def test_mix64_is_splitmix64():
    # The first three outputs of the SplitMix64 generator seeded with 0.
    gamma = 0x9E3779B97F4A7C15
    assert [mix64(gamma * n & (1 << 64) - 1) for n in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def brute_owner(flow, live, seed, key=DEFAULT_RSS_KEY):
    """The live shard with the top ``mix64(flow_hash ^ shard_seed)``."""
    base = flow_hash_bitwise(flow, key)
    return max(live, key=lambda shard: mix64(base ^ mix64(seed + shard + 1)))


class SteeringMachine(RuleBasedStateMachine):
    SHARDS = 5

    flows = Bundle("flows")

    def __init__(self):
        super().__init__()
        self.seed = 0xF1EE7
        self.steering = FleetSteering(self.SHARDS, seed=self.seed)
        self.live = set(range(self.SHARDS))
        self.cached = set()  # flows the model says are in the cache
        self.hits = self.misses = 0
        self.known = set()

    def owners(self):
        return {flow: brute_owner(flow, self.live, self.seed) for flow in self.known}

    def _steer(self, flow):
        if flow in self.cached:
            self.hits += 1
        else:
            self.misses += 1
            self.cached.add(flow)
        self.known.add(flow)
        assert self.steering.shard_for(flow) == brute_owner(flow, self.live, self.seed)

    @rule(target=flows, flow=_FLOWS)
    def steer_new(self, flow):
        self._steer(flow)
        return flow

    @rule(flow=flows)
    def steer_again(self, flow):
        self._steer(flow)

    @precondition(lambda self: len(self.live) > 1)
    @rule(data=st.data())
    def remove(self, data):
        shard = data.draw(st.sampled_from(sorted(self.live)))
        before = self.owners()
        self.steering.remove(shard)
        self.live.discard(shard)
        self.cached = {flow for flow in self.cached if before[flow] != shard}
        after = self.owners()
        for flow in self.known:
            assert (after[flow] != before[flow]) == (before[flow] == shard)

    @rule()
    def remove_the_last_live_shard_is_refused(self):
        if len(self.live) == 1:
            with pytest.raises(ValueError):
                self.steering.remove(next(iter(self.live)))

    @invariant()
    def scan_and_cache_agree_with_the_model(self):
        steering = self.steering
        for flow in self.known:
            assert steering._scan(flow) == brute_owner(flow, self.live, self.seed)
        assert set(steering._cache) == self.cached
        for flow, owner in steering._cache.items():
            assert owner == brute_owner(flow, self.live, self.seed)
        assert (steering.cache_hits, steering.cache_misses) == (self.hits, self.misses)


TestSteeringAgainstModel = SteeringMachine.TestCase
TestSteeringAgainstModel.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
