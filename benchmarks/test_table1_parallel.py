"""Table 1 — Server CPU: one 9000 B-MTU connection vs six parallel
1500 B connections per session (axel).

Paper (server-side CPU usage at equal aggregate throughput):

    sessions   1 conn @9000B   6 conns @1500B
    1          20.20 %         19.52 %
    10         22.12 %         34.53 %
    100        34.72 %         100.00 %   (2.88x more CPU)

Here: :class:`ParallelDownloadModel` prices the data plane by cycle
accounting at the shared line rate and session/connection management by
the fitted superlinear overhead (see ``repro.cpu.ServerCosts``).
"""

import pytest

from repro.cpu import XEON_5512U
from repro.workload import ParallelDownloadModel, SessionConfig

PAPER = {
    (1, "jumbo"): 0.2020, (1, "parallel"): 0.1952,
    (10, "jumbo"): 0.2212, (10, "parallel"): 0.3453,
    (100, "jumbo"): 0.3472, (100, "parallel"): 1.0000,
}


def test_table1_parallel_connections(benchmark, report):
    model = ParallelDownloadModel(XEON_5512U)
    jumbo = SessionConfig.single_jumbo()
    parallel = SessionConfig.axel_parallel()

    def run():
        return {
            (sessions, name): model.cpu_usage(sessions, config)
            for sessions in (1, 10, 100)
            for name, config in (("jumbo", jumbo), ("parallel", parallel))
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    table = report("Table 1", "Server CPU: 1 conn @9000 B vs 6 conns @1500 B")
    for sessions in (1, 10, 100):
        for name in ("jumbo", "parallel"):
            table.add(
                f"{sessions} sessions, {name}",
                PAPER[(sessions, name)],
                round(results[(sessions, name)], 4),
                unit="core",
            )
    ratio = results[(100, "parallel")] / results[(100, "jumbo")]
    table.add("CPU ratio at 100 sessions", 2.88, ratio, unit="x")

    # Every cell within 4 points of CPU of the paper's measurement.
    for key, paper_value in PAPER.items():
        assert abs(results[key] - paper_value) < 0.04, key
    # Headline: ~2.88x more CPU for parallel connections; saturation.
    assert 2.4 < ratio < 3.4
    assert results[(100, "parallel")] == 1.0
