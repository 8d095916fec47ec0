"""Layers of the program, by source path, and cProfile attribution to them.

A layer is a module name.  Every file under ``src/repro/`` must be
assigned here — an unmapped file is an error, so a new module cannot
silently land in ``other``.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

LAYERS = (
    "packet", "sim.engine", "sim.link", "net", "tcpstack", "nic",
    "core.gateway", "core.worker", "core.tcp_merge", "core.tcp_split",
    "core.caravan", "core.flow_table", "fleet", "obs", "resilience", "other",
)

#: Files split out of their package (paths relative to ``src/repro``).
_FILES = {
    "sim/__init__.py": "other",
    "sim/engine.py": "sim.engine",
    "sim/link.py": "sim.link",
    "sim/netem.py": "sim.link",
    "sim/node.py": "net",
    "sim/pcap.py": "other",
    "sim/trace.py": "other",
    "core/__init__.py": "core.gateway",
    "core/gateway.py": "core.gateway",
    "core/dispatch.py": "core.gateway",
    "core/imtu_exchange.py": "core.gateway",
    "core/worker.py": "core.worker",
    "core/config.py": "core.worker",
    "core/stats.py": "core.worker",
    "core/mss_clamp.py": "core.worker",
    "core/tcp_merge.py": "core.tcp_merge",
    "core/tcp_split.py": "core.tcp_split",
    "core/caravan.py": "core.caravan",
    "core/flow_table.py": "core.flow_table",
    "core/classifier.py": "core.flow_table",
    "__init__.py": "other",
    "__main__.py": "other",
    "cli.py": "other",
}

#: Whole packages.  ``sim`` and ``core`` are absent on purpose: their
#: files are assigned one by one above.
_PACKAGES = {
    "packet": "packet", "net": "net", "tcpstack": "tcpstack", "nic": "nic",
    "fleet": "fleet", "obs": "obs", "resilience": "resilience",
    "analysis": "other", "chaos": "other", "cpu": "other", "ops": "other",
    "perf": "other", "pmtud": "other", "upf": "other", "workload": "other",
}


def layer_of(relative_path: str) -> str:
    """The layer of a file given its path relative to ``src/repro``."""
    path = relative_path.replace(os.sep, "/")
    layer = _FILES.get(path) or _PACKAGES.get(path.split("/", 1)[0] if "/" in path else "")
    if layer is None:
        raise KeyError(f"perfbench/layers.py assigns no layer to src/repro/{path}")
    return layer


def attribute(profiler, repro_dir: str) -> Tuple[Dict[str, dict], int]:
    """Self time and call counts of a finished profile, by layer.

    A Python function is charged to the layer of its file.  A C builtin
    has no file: its self time and calls are charged to the layer of the
    function that called it.  Python code outside ``src/repro`` (the
    standard library, this benchmark's own loop) goes to ``other``.
    Returns ``({layer: {"self_s", "calls"}}, total calls)``.
    """
    prefix = os.path.join(os.path.realpath(repro_dir), "")
    table = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for entry in profiler.getstats():
        code = entry.code
        if isinstance(code, str):
            continue  # a builtin: charged through its callers below
        filename = os.path.realpath(code.co_filename)
        layer = layer_of(filename[len(prefix):]) if filename.startswith(prefix) else "other"
        row = table[layer]
        row["self_s"] += entry.inlinetime
        row["calls"] += entry.callcount
        for callee in entry.calls or ():
            if isinstance(callee.code, str):
                row["self_s"] += callee.inlinetime
                row["calls"] += callee.callcount
    return table, sum(row["calls"] for row in table.values())
