"""Self-test of the benchmark: ``pytest perfbench/`` (not part of tier 1).

Checks that small runs of all six workloads finish quickly and emit
exactly the names ``BENCHMARK.json`` declares, that the layer map covers
the source tree, that the layer predictions written down in the README
hold, and that the output checks have teeth.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from spec import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One small traced run of every workload: (result file, JSON lines, seconds)."""
    out = tmp_path_factory.mktemp("perfbench") / "smoke.json"
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--seconds", "0.45",
         "--rounds", "1", "--trace", "1", "--seed", "5", "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    elapsed = time.monotonic() - started
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    return json.loads(out.read_text()), lines, elapsed


def test_smoke_sizes_finish_quickly_and_correctly(smoke):
    result, lines, elapsed = smoke
    assert elapsed < 30
    assert list(result["workloads"]) == list(WORKLOADS)
    for name, summary in result["workloads"].items():
        assert summary["correct"], name
        assert summary["failed"] == 0 and summary["attempted"] > 0, name
        assert len(summary["egress_sha256"]) == 1, name
    assert [line["correct"] for line in lines] == [True] * len(WORKLOADS)


def test_emitted_names_are_the_declared_names(smoke):
    result, lines, _ = smoke
    for name in itertools.chain(WORKLOADS, END_TO_END, PER_LAYER):
        assert NAME.match(name), name
    for summary in result["workloads"].values():
        assert list(summary["end_to_end"]) == list(END_TO_END)
        assert list(summary["per_layer"]) == list(PER_LAYER)
    for line in lines:  # --trace 1 prints the per-layer metrics, with units
        assert list(line["metrics"]) == list(PER_LAYER)
        assert all(entry["unit"] == PER_LAYER[metric]["unit"]
                   for metric, entry in line["metrics"].items())


def test_every_layer_has_its_three_metrics():
    for layer in layers.LAYERS:
        for suffix in ("self_us_per_pkt", "self_share", "calls_per_pkt"):
            assert f"{layer}.{suffix}" in PER_LAYER


def test_layer_predictions_hold(smoke):
    """Written down before measuring; see README, "Which layer moves what"."""
    per_layer = {name: summary["per_layer"]
                 for name, summary in smoke[0]["workloads"].items()}
    for name in ("wire_tcp_stream", "wire_udp_imix", "fleet_city"):
        for layer in ("sim.engine", "sim.link", "tcpstack", "net"):
            assert per_layer[name][f"{layer}.self_share"] == 0, (name, layer)
        assert per_layer[name]["sim.engine.events_per_pkt"] == 0
    for name in WORKLOADS:
        share = per_layer[name]["obs.self_share"]
        assert (share > 0) == (name == "border_tcp_observed"), name
    assert per_layer["wire_udp_imix"]["core.caravan.self_share"] > 0.05
    # Not 0, as first predicted: every poll batch asks the caravan engine
    # to flush, even when no UDP ever arrives.
    assert 0 < per_layer["wire_tcp_stream"]["core.caravan.self_share"] < 0.01
    assert per_layer["fleet_city"]["fleet.self_share"] > 0
    assert per_layer["border_tcp_observed"]["obs.overhead_ratio"] > 1


def test_layer_map_covers_every_source_file():
    repro = os.path.join(ROOT, "src", "repro")
    count = 0
    for directory, _subdirs, files in os.walk(repro):
        for filename in files:
            if filename.endswith(".py"):
                relative = os.path.relpath(os.path.join(directory, filename), repro)
                assert layers.layer_of(relative) in layers.LAYERS
                count += 1
    assert count > 100
    with pytest.raises(KeyError):
        layers.layer_of("brand_new_package/module.py")
    with pytest.raises(KeyError):
        layers.layer_of("core/brand_new_engine.py")


# ----------------------------------------------------------------------
# Teeth: a verifier that cannot fail verifies nothing
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def imix_traffic():
    """(ingress, egress) of a short IMIX stream through the real datapath."""
    stream, engine = workloads._imix_stream(random.Random(11), 4096)
    ingress = list(stream)
    egress = engine.process_stream(ingress, final_flush=True)
    return ingress, egress


def verify(ingress, egress, **limits) -> workloads.StreamVerifier:
    verifier = workloads.StreamVerifier(**limits)
    for packet, bound in ingress:
        verifier.ingress(packet, bound)
    for packet in egress:
        verifier.egress(packet, packet.to_bytes())
    return verifier


def failed(verifier) -> int:
    (_attempted, count), = verifier.checks({}).values()
    return count


def test_untouched_stream_verifies(imix_traffic):
    ingress, egress = imix_traffic
    verifier = verify(ingress, egress)
    assert verifier.attempted == len(ingress) and failed(verifier) == 0
    assert verifier.caravans > 0 and verifier.inbound_tcp_out > 0


@pytest.mark.parametrize("kind", ["tcp", "caravan"])
def test_dropping_one_egress_packet_fails(imix_traffic, kind):
    from repro.core import is_caravan

    ingress, egress = imix_traffic
    wanted = (lambda p: p.is_tcp) if kind == "tcp" else is_caravan
    victim = next(index for index, packet in enumerate(egress) if wanted(packet))
    assert failed(verify(ingress, egress[:victim] + egress[victim + 1:])) > 0


def test_oversize_egress_packet_fails(imix_traffic):
    ingress, egress = imix_traffic
    verifier = verify(ingress, egress, imtu=1000)
    assert verifier.oversize > 0 and failed(verifier) > 0


def test_conservation_error_fails(imix_traffic):
    ingress, egress = imix_traffic
    verifier = verify(ingress, egress)
    assert verifier.checks({"tcp_bytes": 7})["ingress_packets_conserved"][1] == 1


def test_flipping_one_egress_byte_changes_the_digest(imix_traffic):
    ingress, egress = imix_traffic
    wires = [packet.to_bytes() for packet in egress]
    honest, flipped = workloads.StreamVerifier(), workloads.StreamVerifier()
    for packet, bound in ingress:
        honest.ingress(packet, bound)
        flipped.ingress(packet, bound)
    for index, (packet, wire) in enumerate(zip(egress, wires)):
        honest.egress(packet, wire)
        if index == len(egress) // 2:
            wire = wire[:-1] + bytes([wire[-1] ^ 1])
        flipped.egress(packet, wire)
    assert honest.sha.hexdigest() != flipped.sha.hexdigest()
    assert honest.sha.hexdigest() == verify(ingress, egress).sha.hexdigest()


def test_truncating_one_flow_fails_the_world_check():
    flows = [(1000, 1000)] * 15
    assert sum(f for _, f in workloads.verify_world(flows + [(1000, 1000)], 0).values()) == 0
    checks = workloads.verify_world(flows + [(1000, 999)], 0)
    assert checks["flow_bytes_delivered"] == (16, 1)
    assert workloads.verify_world(flows, dropped_mtu=3)["no_mtu_drops"] == (1, 1)


def test_compare_flags_what_it_must(smoke, tmp_path):
    import copy

    import compare

    base = smoke[0]
    assert compare.compare(base, copy.deepcopy(base)) == 0

    slower = copy.deepcopy(base)
    entry = slower["workloads"]["fleet_city"]["end_to_end"]["cpu_us_per_pkt"]
    entry["value"] *= 1.5
    entry["rounds"] = [value * 1.5 for value in entry["rounds"]]
    assert compare.compare(base, slower) == 1

    moved = copy.deepcopy(base)
    moved["workloads"]["wire_udp_imix"]["end_to_end"]["modeled_gbps"]["value"] *= 1.0001
    moved["workloads"]["wire_udp_imix"]["egress_sha256"] = ["0" * 64]
    moved["workloads"]["wire_udp_imix"]["per_layer"]["core.worker.hairpin_share"] += 1e-9
    moved["workloads"]["wire_udp_imix"]["failed"] = 1
    assert compare.compare(base, moved) == 4
