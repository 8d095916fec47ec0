"""Unit tests for the probe-path defenses.

Each defense is exercised in a three-host star world (client, server,
attacker behind one router) where the attacker can spoof arbitrary
source addresses — exactly the off-path forger the hardening targets.
"""

import dataclasses

import pytest

from repro.pmtud import (
    ECHO_PORT,
    FPMTUD_PORT,
    MIN_PLAUSIBLE_PMTU,
    FPmtudDaemon,
    FPmtudProber,
    HardeningPolicy,
    Plpmtud,
    ReportRateLimiter,
    pack_echo_ack,
)
from repro.pmtud.echo import parse_echo_ack
from repro.pmtud.fpmtud import _pack_report
from repro.packet import build_udp

from .conftest import star_topology


class TestHardeningPolicy:
    def test_hardened_turns_every_defense_on(self):
        policy = HardeningPolicy.hardened()
        assert policy.probe_nonces and policy.pmtu_bounds
        assert policy.reject_raises and policy.rate_limit_reports
        assert policy.validate_inner and policy.per_flow_cache

    def test_unhardened_turns_every_defense_off(self):
        policy = HardeningPolicy.unhardened()
        assert not any(
            (policy.probe_nonces, policy.pmtu_bounds, policy.reject_raises,
             policy.rate_limit_reports, policy.validate_inner,
             policy.per_flow_cache)
        )

    def test_policy_is_frozen_but_replaceable(self):
        policy = HardeningPolicy.hardened()
        with pytest.raises(dataclasses.FrozenInstanceError):
            policy.probe_nonces = False
        weakened = dataclasses.replace(policy, probe_nonces=False)
        assert not weakened.probe_nonces and weakened.pmtu_bounds

    def test_plausibility_floor_is_rfc_791(self):
        assert MIN_PLAUSIBLE_PMTU == 576


class TestReportRateLimiter:
    def test_burst_then_throttle(self):
        limiter = ReportRateLimiter(rate=10.0, burst=4)
        verdicts = [limiter.allow(0.0) for _ in range(6)]
        assert verdicts == [True] * 4 + [False] * 2
        assert limiter.allowed == 4 and limiter.throttled == 2

    def test_tokens_refill_at_rate(self):
        limiter = ReportRateLimiter(rate=10.0, burst=4)
        for _ in range(4):
            assert limiter.allow(0.0)
        assert not limiter.allow(0.05)  # half a token: not enough
        assert limiter.allow(0.16)      # >1 token accumulated by now

    def test_refill_never_exceeds_burst(self):
        limiter = ReportRateLimiter(rate=10.0, burst=2)
        assert limiter.allow(0.0) and limiter.allow(0.0)
        # A long quiet period refills to the burst cap, not beyond.
        verdicts = [limiter.allow(100.0) for _ in range(4)]
        assert verdicts == [True, True, False, False]

    def test_decisions_are_deterministic(self):
        times = [0.0, 0.01, 0.02, 0.3, 0.31, 0.9, 2.0]
        first = [ReportRateLimiter(5.0, 2).allow(t) for t in times]
        second = [ReportRateLimiter(5.0, 2).allow(t) for t in times]
        assert first == second

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ReportRateLimiter(rate=0.0, burst=4)
        with pytest.raises(ValueError):
            ReportRateLimiter(rate=1.0, burst=0)


class TestProbeNonces:
    def test_unhardened_ids_are_guessable(self):
        topo, client, server, _attacker = star_topology()
        prober = FPmtudProber(client)  # defaults to the trusting stack
        ids = [prober.probe(server.ip, 1500, lambda _r: None, timeout=9.0)
               for _ in range(3)]
        assert ids == [1, 2, 3]

    def test_hardened_ids_are_nonces(self):
        topo, client, server, _attacker = star_topology()
        prober = FPmtudProber(client, policy=HardeningPolicy.hardened(),
                              link_mtu=1500, nonce_seed=5)
        ids = [prober.probe(server.ip, 1500, lambda _r: None, timeout=9.0)
               for _ in range(3)]
        assert len(set(ids)) == 3
        assert all(probe_id > 0 for probe_id in ids)
        # Not the sequential counter an off-path attacker could walk.
        assert ids != [1, 2, 3]

    def test_nonces_are_seed_deterministic(self):
        def first_id(seed):
            topo, client, server, _attacker = star_topology()
            prober = FPmtudProber(client, policy=HardeningPolicy.hardened(),
                                  link_mtu=1500, nonce_seed=seed)
            return prober.probe(server.ip, 1500, lambda _r: None, timeout=9.0)

        assert first_id(11) == first_id(11)
        assert first_id(11) != first_id(12)


class TestForgedReports:
    def _forge_report(self, world, probe_id, sizes, at):
        topo, client, server, attacker = world
        payload = _pack_report(probe_id, sizes)
        packet = build_udp(server.ip, client.ip, FPMTUD_PORT, 52000, payload)
        topo.sim.schedule_at(at, attacker.send, packet)

    def test_unhardened_prober_swallows_a_forged_report(self):
        world = topo, client, server, attacker = star_topology()
        FPmtudDaemon(server)
        prober = FPmtudProber(client, src_port=52000)
        results = []
        prober.probe(server.ip, 1500, results.append, timeout=5.0)
        # The forged report beats the genuine one home (1 hop vs 2).
        self._forge_report(world, probe_id=1, sizes=[8996], at=0.0)
        topo.run(until=1.0)
        assert results and results[0].pmtu == 8996  # inflated: blackhole bait

    def test_nonces_make_forged_ids_land_nowhere(self):
        world = topo, client, server, attacker = star_topology()
        FPmtudDaemon(server)
        prober = FPmtudProber(client, src_port=52000,
                              policy=HardeningPolicy.hardened(),
                              link_mtu=1500, nonce_seed=3)
        results = []
        prober.probe(server.ip, 1500, results.append, timeout=5.0)
        for guess in range(1, 9):
            self._forge_report(world, probe_id=guess, sizes=[8996],
                              at=guess * 1e-4)
        topo.run(until=1.0)
        assert prober.rejections["unknown-id"] == 8
        assert results and results[0].pmtu == 1500  # the genuine report won

    def test_bounds_reject_inflation_even_with_guessed_id(self):
        # Nonces off, bounds on: the attacker hits the live id but the
        # value itself is implausible, and the probe stays pending for
        # the genuine report.
        world = topo, client, server, attacker = star_topology()
        FPmtudDaemon(server)
        policy = dataclasses.replace(HardeningPolicy.hardened(),
                                     probe_nonces=False)
        prober = FPmtudProber(client, src_port=52000, policy=policy,
                              link_mtu=1500)
        results = []
        prober.probe(server.ip, 1500, results.append, timeout=5.0)
        self._forge_report(world, probe_id=1, sizes=[8996], at=0.0)
        topo.run(until=1.0)
        assert prober.rejections["bounds"] == 1
        assert results and results[0].pmtu == 1500

    def test_bounds_reject_micro_segmentation_bait(self):
        world = topo, client, server, attacker = star_topology()
        FPmtudDaemon(server)
        policy = dataclasses.replace(HardeningPolicy.hardened(),
                                     probe_nonces=False)
        prober = FPmtudProber(client, src_port=52000, policy=policy,
                              link_mtu=1500)
        results = []
        prober.probe(server.ip, 1500, results.append, timeout=5.0)
        self._forge_report(world, probe_id=1, sizes=[296], at=0.0)
        topo.run(until=1.0)
        assert prober.rejections["bounds"] == 1
        assert results and results[0].pmtu == 1500


class TestPlpmtudAckForgery:
    def _spray_acks(self, world, dst_port, until=1.5, period=0.01, ids=10):
        """Blind-confirm every plausible sequential probe id, repeatedly."""
        topo, client, server, attacker = world
        burst = 0
        at = 1e-3
        while at < until:
            for guess in range(1, ids + 1):
                packet = build_udp(server.ip, client.ip, ECHO_PORT, dst_port,
                                   pack_echo_ack(guess))
                topo.sim.schedule_at(at + guess * 1e-5, attacker.send, packet)
            burst += 1
            at += period

    def test_unhardened_search_inflates_with_no_daemon_at_all(self):
        # No echo daemon runs on the server: every honest outcome is a
        # timeout.  Spraying acks at the guessable id counter convinces
        # the trusting search that 1500 B passed.
        world = topo, client, server, attacker = star_topology()
        plpmtud = Plpmtud(client, probe_timeout=0.05)
        results = []
        plpmtud.discover(server.ip, 1500, results.append)
        self._spray_acks(world, dst_port=54000)
        topo.run(until=5.0)
        assert results and results[0].pmtu == 1500
        assert results[0].timeouts == 0  # it never noticed anything wrong

    def test_nonced_search_ignores_the_spray(self):
        world = topo, client, server, attacker = star_topology()
        plpmtud = Plpmtud(client, probe_timeout=0.05, policy=HardeningPolicy.hardened(),
                          nonce_seed=9)
        results = []
        plpmtud.discover(server.ip, 1500, results.append)
        self._spray_acks(world, dst_port=54000)
        topo.run(until=5.0)
        assert plpmtud.acks_ignored > 0
        # Nothing confirmed anything: the search bottoms out honestly.
        assert results and results[0].pmtu == 576
        assert results[0].timeouts > 0


def test_echo_ack_roundtrip():
    assert parse_echo_ack(pack_echo_ack(0xDEADBEEF)) == 0xDEADBEEF
    assert parse_echo_ack(b"junk") is None
