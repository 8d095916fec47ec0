"""The parallel-connection alternative (Table 1): axel-style sessions.

Each *session* downloads one large file either over a single connection
with a 9000 B-MTU MSS or over ``conns`` parallel legacy-MTU connections
(axel's mode).  Both configurations reach the same aggregate
throughput; the question is server CPU.  :class:`ParallelDownloadModel`
prices the server side:

* base work — per-byte copies, per-TSO-chunk stack traversals, per-ACK
  processing at the offered line rate — via cycle accounting;
* session/connection management — epoll and timer scanning, cache and
  TLB pressure — via the fitted superlinear session-overhead terms in
  :class:`repro.cpu.ServerCosts`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cpu import DEFAULT_SERVER_COSTS, CpuSpec

__all__ = ["SessionConfig", "ParallelDownloadModel"]

#: The aggregate rate every configuration serves (Table 1's 10 GbE).
LINE_RATE_BPS = 10e9
#: The receiver ACKs every this many MSS-sized segments.
ACKS_PER_SEGMENTS = 2


@dataclass(frozen=True)
class SessionConfig:
    """One download session's shape."""

    connections: int
    mss: int

    #: The paper's two configurations.
    @classmethod
    def single_jumbo(cls) -> "SessionConfig":
        return cls(connections=1, mss=8948)

    @classmethod
    def axel_parallel(cls) -> "SessionConfig":
        return cls(connections=6, mss=1448)


class ParallelDownloadModel:
    """Server CPU usage for S sessions of a given configuration."""

    def __init__(self, spec: CpuSpec):
        self.spec = spec

    def base_cycles_per_second(self, config: SessionConfig) -> float:
        """Data-plane cycles/s to serve the full line rate."""
        costs = DEFAULT_SERVER_COSTS
        bytes_per_second = LINE_RATE_BPS / 8.0
        copy = bytes_per_second * costs.per_byte
        chunks = bytes_per_second / costs.chunk_bytes * costs.tso_chunk
        acks = bytes_per_second / (ACKS_PER_SEGMENTS * config.mss)
        ack_cycles = acks * costs.ack_rx_per_packet
        return copy + chunks + ack_cycles

    def management_fraction(self, sessions: int, config: SessionConfig) -> float:
        """Connection/session management, as a fraction of one core."""
        costs = DEFAULT_SERVER_COSTS
        per_session = (
            costs.session_overhead_frac
            + costs.extra_conn_overhead_frac * (config.connections - 1)
        )
        return per_session * sessions ** costs.session_exponent

    def cpu_usage(self, sessions: int, config: SessionConfig) -> float:
        """Server CPU usage (fraction of one core) for *sessions*.

        The aggregate line rate is fixed — more sessions each get a
        smaller share — matching the paper's setup where both columns
        of Table 1 achieve similar network throughput.  Values are
        clamped at 1.0 (a saturated core).
        """
        if sessions <= 0:
            raise ValueError("need at least one session")
        base = self.base_cycles_per_second(config) / self.spec.clock_hz
        usage = base + self.management_fraction(sessions, config)
        return min(usage, 1.0)

    def cpu_ratio(self, sessions: int, parallel: "SessionConfig | None" = None,
                  jumbo: "SessionConfig | None" = None) -> float:
        """How many times more CPU the parallel config burns (clamped)."""
        parallel = parallel or SessionConfig.axel_parallel()
        jumbo = jumbo or SessionConfig.single_jumbo()
        return self.cpu_usage(sessions, parallel) / self.cpu_usage(sessions, jumbo)
