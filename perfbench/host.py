"""The host this benchmark runs on: its fingerprint and its speed right now.

This sandbox's cores change speed under the benchmark: they flip between
two states about 28 % apart for seconds at a time, and in bad minutes a
workload's raw time per packet swings by 40 % from one second to the next
(CPU time moves with wall time, so it is the core, not the scheduler).  A
fixed pure-Python loop run next to the program slows down with it, so
every host-axis time is divided by how long that loop took beside it and
multiplied by :data:`REFERENCE_NS_PER_ITERATION`: times read as if the
host had stayed in its usual state throughout.  Raw times are kept too.

The loop mixes integer arithmetic with small-object, dict and tuple
traffic because that is what the program does: measured against three
workloads in a bad hour, an arithmetic-only loop left 5.3 % / 1.0 % /
2.6 % of round-to-round variation (fleet / border world / IMIX),
allocation-only 3.5 / 2.0 / 2.2, both together 4.2 / 1.1 / 2.3, against
12 / 11 / 9 % unscaled.
"""

from __future__ import annotations

import os
import platform
import time

#: What one iteration of :func:`calibration_ns` costs on the reference
#: host in its usual state.  A constant, so that two invocations — and a
#: parent commit and a change — are scaled to the same yardstick.
REFERENCE_NS_PER_ITERATION = 500.0


class _Cell:
    __slots__ = ("index", "low")

    def __init__(self, index: int, low: int):
        self.index = index
        self.low = low


def calibration_ns(iterations: int) -> float:
    """Nanoseconds per iteration of a fixed pure-Python loop, right now."""
    started = time.perf_counter_ns()
    acc = 0
    table = {}
    for index in range(iterations):
        acc = (acc * 31 + index) & 0xFFFFFFFF
        acc = (acc * 17 + 3) & 0xFFFFFFFF
        acc ^= acc >> 7
        cell = _Cell(index, acc & 0xFF)
        table[index & 127] = cell
        older = table.get((index * 7) & 127)
        if older is not None:
            acc += older.low
        pair = (index, cell)
        acc += pair[0] & 1
    return (time.perf_counter_ns() - started) / iterations


def fingerprint() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": model or platform.processor(),
        "loadavg": os.getloadavg(),
    }
