"""Caravan capability negotiation: probe, ack, negative cache, expiry."""

import pytest

from repro.chaos import LinkSpec, WorldSpec, build
from repro.core import GatewayConfig
from repro.resilience import CaravanNegotiator
from repro.resilience.negotiation import (
    pack_cap_ack,
    pack_cap_query,
    parse_cap_ack,
    parse_cap_query,
)
from repro.resilience.retry import BackoffPolicy


def make_world(enable_stack=True, negotiation=True, **negotiator_kwargs):
    world = build(WorldSpec(
        seed=0, hosts=("inside", "outside"),
        links=(LinkSpec("inside", "pxgw", 9000, 10e9, 5e-5),
               LinkSpec("pxgw", "outside", 1500, 10e9, 5e-5)),
        config=GatewayConfig(), inside=("inside",),
    ))
    topo, gateway = world.topo, world.gateway
    inside, outside = world.nodes["inside"], world.nodes["outside"]
    if enable_stack:
        inside.enable_caravan_stack(9000)
    negotiator = None
    if negotiation:
        negotiator_kwargs.setdefault("backoff", BackoffPolicy(
            initial=0.05, multiplier=2.0, max_delay=0.5, jitter=0.0, max_attempts=2
        ))
        negotiator_kwargs.setdefault("query_timeout", 0.1)
        negotiator = CaravanNegotiator(gateway, **negotiator_kwargs)
        gateway.worker.caravan_gate = negotiator.allow_caravan
    return topo, inside, outside, gateway, negotiator


class TestWireFormat:
    def test_query_roundtrip(self):
        assert parse_cap_query(pack_cap_query(42)) == 42
        assert parse_cap_query(b"nope") is None
        assert parse_cap_query(pack_cap_ack(1, 9000)) is None

    def test_ack_roundtrip(self):
        assert parse_cap_ack(pack_cap_ack(7, 9000)) == (7, 9000)
        assert parse_cap_ack(b"PXCA\x00") is None
        assert parse_cap_ack(pack_cap_query(7)) is None

    def test_validation(self):
        topo, _, _, gateway, _ = make_world(negotiation=False)
        with pytest.raises(ValueError):
            CaravanNegotiator(gateway, negative_ttl=0.0)


class TestNegotiation:
    def test_capable_peer_flips_to_positive(self):
        topo, inside, _, gateway, negotiator = make_world()
        now = topo.sim.now
        # First ask: unknown -> fail safe, kick off the query.
        assert negotiator.allow_caravan(inside.ip, now) is False
        assert negotiator.capability(inside.ip, now) is None
        topo.run(until=0.05)  # one RTT
        assert negotiator.capability(inside.ip, topo.sim.now) is True
        assert negotiator.allow_caravan(inside.ip, topo.sim.now) is True
        assert negotiator.acks_received == 1
        assert negotiator._positive[inside.ip][0] == 9000  # learned iMTU

    def test_silent_peer_lands_in_negative_cache(self):
        topo, inside, _, gateway, negotiator = make_world(enable_stack=False)
        assert negotiator.allow_caravan(inside.ip, topo.sim.now) is False
        topo.run(until=1.0)  # timeout, one backoff retry, timeout
        assert negotiator.capability(inside.ip, topo.sim.now) is False
        assert negotiator.negative_verdicts == 1
        assert negotiator.queries_sent == 2  # initial + one retry
        # While negative, asks are suppressed without new probes.
        sent = negotiator.queries_sent
        assert negotiator.allow_caravan(inside.ip, topo.sim.now) is False
        topo.run(until=1.2)
        assert negotiator.queries_sent == sent

    def test_negative_cache_expiry_reprobes_upgraded_peer(self):
        topo, inside, _, gateway, negotiator = make_world(
            enable_stack=False, negative_ttl=0.5
        )
        negotiator.allow_caravan(inside.ip, topo.sim.now)
        topo.run(until=0.5)  # verdict lands ~0.25, TTL runs to ~0.75
        assert negotiator.capability(inside.ip, topo.sim.now) is False
        # The peer upgrades mid-deployment...
        inside.enable_caravan_stack(9000)
        topo.run(until=1.0)  # ...the negative verdict expires...
        assert negotiator.capability(inside.ip, topo.sim.now) is None
        assert negotiator.allow_caravan(inside.ip, topo.sim.now) is False
        topo.run(until=1.2)  # ...and the re-probe discovers it.
        assert negotiator.capability(inside.ip, topo.sim.now) is True

    def test_positive_entry_expires(self):
        topo, inside, _, gateway, negotiator = make_world(positive_ttl=0.5)
        negotiator.allow_caravan(inside.ip, topo.sim.now)
        topo.run(until=0.1)
        assert negotiator.allow_caravan(inside.ip, topo.sim.now) is True
        topo.run(until=0.7)
        # Expired: back to unknown (fail safe) and a fresh probe.
        assert negotiator.allow_caravan(inside.ip, topo.sim.now) is False
        topo.run(until=0.8)
        assert negotiator.allow_caravan(inside.ip, topo.sim.now) is True

    def test_unroutable_peer_fails_safe_immediately(self):
        topo, inside, _, gateway, negotiator = make_world()
        from repro.packet import str_to_ip

        stranger = str_to_ip("203.0.113.99")
        assert negotiator.allow_caravan(stranger, topo.sim.now) is False
        assert negotiator.capability(stranger, topo.sim.now) is False
        assert negotiator.negative_verdicts == 1


class TestEndToEnd:
    def test_datagrams_flow_plain_then_bundled(self):
        topo, inside, outside, gateway, negotiator = make_world()
        received = []
        inside.on_udp(4433, lambda p, h: received.append(p.payload))

        def burst():
            for index in range(8):
                outside.send_udp(inside.ip, 4433, 4433,
                                 payload=bytes([index]) * 700)

        # Burst 1 while the peer's capability is unknown: every
        # datagram is delivered (fail safe), none bundled.
        topo.sim.schedule_at(0.01, burst)
        topo.run(until=0.2)
        assert len(received) == 8
        assert gateway.stats.caravans_built == 0
        assert gateway.stats.caravans_suppressed >= 1
        assert negotiator.capability(inside.ip, topo.sim.now) is True

        # Burst 2 with a positive verdict: bundling kicks in and the
        # datagrams still arrive intact.
        topo.sim.schedule_at(0.3, burst)
        topo.run(until=0.6)
        assert len(received) == 16
        assert gateway.stats.caravans_built >= 1
        assert not gateway.stats.conservation_errors(
            pending_datagrams=gateway.worker.caravan_merge.pending_packets()
        )
