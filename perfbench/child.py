"""One (workload, round) in a fresh process: ``child.py '<json spec>'``.

``run.py`` starts one of these at a time, so every round pays its own
imports and input build (``setup_s``) and no state leaks between rounds.
The last line of standard output is the round's result as one JSON
object.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPRO_DIR = os.path.join(os.path.dirname(HERE), "src", "repro")


def _cpu_children_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def run(spec: dict) -> dict:
    sys.path.insert(0, os.path.dirname(REPRO_DIR))
    import host

    # Set-up runs from the spawn to the end of warm-up; it is scaled by
    # the median host speed seen before, early in and at the end of it.
    speeds = [spec["host_ns_per_iteration"], host.calibration_ns(6_000)]
    import layers
    import workloads

    profiler = cProfile.Profile() if spec["trace"] else None
    timed = workloads.Timed(profiler)
    at_setup = {}

    def setup_done() -> None:
        gc.collect()
        at_setup["raw_s"] = time.time() - spec["spawned_at"]
        speeds.append(host.calibration_ns(6_000))
        at_setup["collections"] = _gc_collections()
        at_setup["children_s"] = _cpu_children_s()
        timed.begin()

    result = workloads.run_round(spec["workload"], spec["seed"], spec["seconds"],
                                 timed, setup_done)
    result.update(
        workload=spec["workload"],
        setup_s=at_setup["raw_s"] * host.REFERENCE_NS_PER_ITERATION
        / statistics.median(speeds),
        raw_setup_s=at_setup["raw_s"],
        raw_timed_wall_s=timed.raw_wall_ns / 1e9,
        chunks=timed.scaled_chunks(),
        # CPU time of reaped children, so that a layer which goes
        # multi-process cannot hide its cost; there are none today.
        children_cpu_s=_cpu_children_s() - at_setup["children_s"],
        host_speed=statistics.median(timed.slices) / host.REFERENCE_NS_PER_ITERATION,
        generator_s=timed.generator_ns / 1e9,
        gc_collections=_gc_collections() - at_setup["collections"],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if profiler is not None:
        result["layers"], result["total_calls"] = layers.attribute(profiler, REPRO_DIR)
        result["spans"] = timed.spans
    return result


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
