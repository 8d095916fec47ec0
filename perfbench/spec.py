"""What ``BENCHMARK.json`` declares, plus which metrics must repeat exactly.

``BENCHMARK.json`` at the repository root is the one place that names
workloads and metrics, their units, directions and regression bounds;
everything in ``perfbench/`` reads it from here.
"""

from __future__ import annotations

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)

WORKLOADS = {entry["name"]: entry["why"] for entry in BENCHMARK["workloads"]}
END_TO_END = {entry["name"]: entry for entry in BENCHMARK["end_to_end"]}
PER_LAYER = {entry["name"]: entry for entry in BENCHMARK["per_layer"]}

#: End-to-end metrics on the modeled axis: what the cycle-accounted
#: gateway would do.  They depend on behaviour, never on this host, so two
#: runs of one seed must agree to the last digit.
MODELED = frozenset({"modeled_gbps"})

_HOST_SUFFIXES = (
    "self_us_per_pkt", "self_share", "parse_us_per_pkt", "serialize_us_per_pkt",
    "process_us_per_pkt", "overhead_ratio", "chunk_us_per_pkt_p95",
    "gc_collections", "generator_s", "timed_s", "calib_drift", "speed_ratio",
)


def is_exact(name: str) -> bool:
    """True for metrics that are counts or modeled: same seed, same value."""
    if name in END_TO_END:
        return name in MODELED
    return not name.endswith(_HOST_SUFFIXES)
