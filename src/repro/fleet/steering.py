"""Flow-consistent steering across a mutable fleet of gateway shards.

A single PXGW instance shards flows over worker cores with the RSS
indirection table (:class:`repro.nic.rss.RssDistributor`).  That scheme
breaks at fleet scale: removing a shard renumbers the modulo, moving
almost *every* flow — and a moved flow lands on a shard that holds none
of its state (classifier verdict, merge affinity), so a single failure
would cold-start the whole city.

The fleet therefore steers with rendezvous (highest-random-weight)
hashing layered on the same Toeplitz flow hash the NICs use:

* each (flow, shard) pair gets a deterministic 64-bit weight derived
  from the flow's RSS hash and the shard's seed;
* a flow is served by the *live* shard with the highest weight;
* removing a shard moves exactly the flows that shard owned (their next
  highest weight is unchanged for everyone else) — flow affinity
  survives a shard loss by construction.

Packets without a parseable 4-tuple (fragments, ICMP) round-robin over
the live shards, mirroring the NIC fallback.
"""

from __future__ import annotations

from typing import Dict, List

from ..nic.rss import DEFAULT_RSS_KEY, flow_hash, mix64
from ..packet import FlowKey

__all__ = ["FleetSteering"]

_MASK64 = (1 << 64) - 1


class FleetSteering:
    """Rendezvous-hash steering over the live subset of N shards."""

    def __init__(self, shards: int, seed: int = 0xF1EE7, key: bytes = DEFAULT_RSS_KEY):
        if shards <= 0:
            raise ValueError("need at least one shard")
        self.shards = shards
        self.key = key
        #: Per-shard weight seeds; frozen at construction so the flow →
        #: shard map is a pure function of (flow, live membership).
        self._shard_seeds = [mix64(seed + index + 1) for index in range(shards)]
        self._live = [True] * shards
        self._cache: Dict[FlowKey, int] = {}
        #: Steering decisions landed on each shard (cache hits count —
        #: every call models one hardware steering decision).
        self.steered = [0] * shards
        #: Cache effectiveness: hits resolve in one dict probe, misses
        #: walk the rendezvous ring (exported via ``observe_fleet``).
        self.cache_hits = 0
        self.cache_misses = 0
        #: Membership changes applied (removals).
        self.reshards = 0
        self._rr = 0
        #: Subscribers told of every cache-*miss* decision (``on_event``,
        #: ``"steering-decision"``); empty by default.  The cached hot
        #: path never emits, so a subscriber costs nothing per packet.
        self.observers = ()

    # ------------------------------------------------------------------
    def live_shards(self) -> List[int]:
        """Indices of shards currently receiving traffic."""
        return [index for index, live in enumerate(self._live) if live]

    def remove(self, shard: int) -> None:
        """Take *shard* out of the steering map for good (shard loss)."""
        if not self._live[shard]:
            return
        if sum(self._live) == 1:
            raise ValueError("cannot remove the last live shard")
        self._live[shard] = False
        self.reshards += 1
        # Only flows owned by the removed shard change target; dropping
        # just their cache entries keeps every other flow's assignment
        # untouched (and provably unchanged, by the rendezvous property).
        self._cache = {
            flow: owner for flow, owner in self._cache.items() if owner != shard
        }

    # ------------------------------------------------------------------
    def _scan(self, flow: FlowKey) -> int:
        """The rendezvous scan: the live shard with *flow*'s top weight,
        ``mix64(flow_hash ^ seed)`` with SplitMix64 written out inline."""
        base = flow_hash(flow, self.key)
        mask = _MASK64
        best = -1
        best_weight = -1
        live = self._live
        seeds = self._shard_seeds
        for index in range(self.shards):
            if not live[index]:
                continue
            weight = ((base ^ seeds[index]) + 0x9E3779B97F4A7C15) & mask
            weight = ((weight ^ (weight >> 30)) * 0xBF58476D1CE4E5B9) & mask
            weight = ((weight ^ (weight >> 27)) * 0x94D049BB133111EB) & mask
            weight ^= weight >> 31
            if weight > best_weight:
                best_weight = weight
                best = index
        return best

    def shard_for(self, flow: FlowKey, now: float = 0.0) -> int:
        """The live shard serving *flow* under the current membership.

        *now* is the time a fresh decision is announced with.
        """
        cached = self._cache.get(flow)
        if cached is not None:
            self.cache_hits += 1
            self.steered[cached] += 1
            return cached
        self.cache_misses += 1
        best = self._cache[flow] = self._scan(flow)
        self.steered[best] += 1
        for observer in self.observers:
            observer.on_event(self, now, "steering-decision", flow=flow, shard=best)
        return best

    def owner_of(self, flow: FlowKey) -> int:
        """Pure peek at *flow*'s owner under the current membership.

        Unlike :meth:`shard_for` this never mutates the cache, the
        counters, or tells the observers — verification code can ask
        who owns a flow without perturbing the steering state.
        """
        cached = self._cache.get(flow)
        return cached if cached is not None else self._scan(flow)

    def shard_for_unkeyed(self) -> int:
        """Round-robin fallback for packets without a flow key."""
        live = self.live_shards()
        self._rr = (self._rr + 1) % len(live)
        shard = live[self._rr]
        self.steered[shard] += 1
        return shard

    # ------------------------------------------------------------------
    def distribution(self, flows) -> List[int]:
        """Per-shard flow counts for *flows* (imbalance analysis)."""
        counts = [0] * self.shards
        for flow in flows:
            counts[self.shard_for(flow)] += 1
        return counts
