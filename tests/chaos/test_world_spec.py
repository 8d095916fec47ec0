"""``build(spec)`` over generated border worlds, and the one injector install.

The strategy draws small worlds the way the paper's deployments look:
1–3 hosts, 0–2 routers and the gateway ``pxgw`` joined by a random
spanning tree, links at 1280 / 1500 / 9000 B, unique or empty role
names, a random tapped subset, and an ``inside`` drawn from the hosts
next to the gateway.  Whatever it draws, the built world must be the
spec: every role's link where the spec put it, a tap exactly where one
was asked for, internal marks exactly toward ``inside``, a route from
every host to every other, and the same addresses and link RNGs when
built twice.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import (
    LinkSpec,
    WorldSpec,
    build,
    build_attack_world,
    run_scenario,
)
from repro.chaos.attacks import apply_attack_faults
from repro.chaos.faults import Fault, FaultPlan
from repro.core import GatewayConfig

ROLE_NAMES = ("int_out", "int_in", "ext_out", "ext_in", "far_out", "far_in",
              "vic_out", "vic_in", "atk_out", "atk_in")


@st.composite
def world_specs(draw):
    hosts = tuple(f"h{index}" for index in range(draw(st.integers(1, 3))))
    routers = tuple(f"r{index}" for index in range(draw(st.integers(0, 2))))
    order = draw(st.permutations(hosts + ("pxgw",) + routers))
    names = draw(st.permutations(ROLE_NAMES))
    links = []
    for index in range(1, len(order)):
        pair = (order[index], order[draw(st.integers(0, index - 1))])
        a, b = pair if draw(st.booleans()) else pair[::-1]
        roles = tuple(name if draw(st.booleans()) else ""
                      for name in names[2 * index - 2:2 * index])
        links.append(LinkSpec(
            a, b, draw(st.sampled_from((1280, 1500, 9000))),
            draw(st.sampled_from((100e6, 1e9, 10e9))),
            draw(st.sampled_from((1e-6, 5e-5, 2e-4))),
            roles=roles,
        ))
    named = [role for link in links for role in link.roles if role]
    next_to_gateway = sorted({link.a if link.b == "pxgw" else link.b
                              for link in links if "pxgw" in (link.a, link.b)}
                             & set(hosts))
    return WorldSpec(
        seed=draw(st.integers(0, 2**16)),
        hosts=hosts,
        links=tuple(links),
        config=GatewayConfig(),
        routers=routers,
        inside=tuple(host for host in next_to_gateway if draw(st.booleans())),
        taps=tuple(role for role in named if draw(st.booleans())),
    )


@settings(max_examples=60, deadline=None)
@given(world_specs())
def test_build_is_the_spec(spec):
    world = build(spec)
    assert world.nodes["pxgw"] is world.gateway
    assert set(world.nodes) == set(spec.hosts + ("pxgw",) + spec.routers)

    for link in spec.links:
        for role, (src, dst) in zip(link.roles, ((link.a, link.b), (link.b, link.a))):
            if not role:
                continue
            built = world.links[role]
            assert (built.src.node.name, built.dst.node.name) == (src, dst)
            assert (built.mtu, built.bandwidth_bps, built.delay) == (
                link.mtu, link.bandwidth_bps, link.delay)
    assert set(world.links) == {role for link in spec.links
                                for role in link.roles if role}

    assert set(world.taps) == set(spec.taps)
    for role, tap in world.taps.items():
        assert world.links[role].taps == [tap] and tap.point == role
    tapped = {id(world.links[role]) for role in spec.taps}
    for built in world.topo.links():
        assert bool(built.taps) == (id(built) in tapped)

    for interface in world.gateway.interfaces:
        peer = interface.link.dst.node.name
        assert world.gateway.is_internal(interface) == (peer in spec.inside)

    for host in spec.hosts:
        for other in spec.hosts:
            if other != host:
                route = world.nodes[host].routes.lookup(world.nodes[other].ip)
                assert route is not None
                assert route.interface in world.nodes[host].interfaces

    again = build(spec)
    assert ([iface.ip for node in world.nodes.values() for iface in node.interfaces]
            == [iface.ip for node in again.nodes.values() for iface in node.interfaces])
    assert ([link.rng.getstate() for link in world.topo.links()]
            == [link.rng.getstate() for link in again.topo.links()])


def _drop(role):
    return FaultPlan(link_faults=[Fault(action="drop", link=role)])


def test_an_unknown_fault_role_is_an_error_on_both_paths():
    # A typo'd role would otherwise silently no-op the fault.
    with pytest.raises(ValueError, match=r"'far_in' \(this world has .*'int_in'"):
        run_scenario("tcp", 101, plan=_drop("far_in"))
    with pytest.raises(ValueError, match=r"'int_out' \(this world has .*'atk_in'"):
        apply_attack_faults(_drop("int_out"), build_attack_world(7, hardened=True))
