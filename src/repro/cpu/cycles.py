"""Cycle and memory-bandwidth accounting.

Absolute forwarding rates (Tbps) cannot be generated from Python, so
every performance experiment in this reproduction runs the *real*
packet-processing logic over a sampled workload while charging costs to
a :class:`CycleAccount`.  Sustained throughput is then the classic
bottleneck law over two resources:

``tput = min(cpu_cycles_available, mem_bytes_available) scaled by the
per-goodput-byte demand measured on the sample``

The cost *constants* live in :mod:`repro.cpu.calibration`; the cost
*structure* (what gets charged per packet, per segment, per byte) lives
in the components doing the work (PXGW, NIC offloads, the UPF), so
ratios and crossovers are emergent, not hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CpuSpec", "CycleAccount"]


@dataclass(frozen=True)
class CpuSpec:
    """A processor model: clock, core count, memory bandwidth."""

    name: str
    clock_hz: float
    cores: int
    #: Aggregate DRAM bandwidth available to the packet path.
    mem_bw_bytes_per_sec: float

    def cycles_per_second(self, cores: "int | None" = None) -> float:
        """Total cycles/second across *cores* (defaults to all)."""
        used = self.cores if cores is None else cores
        if used > self.cores:
            raise ValueError(f"{self.name} has only {self.cores} cores (asked {used})")
        return self.clock_hz * used


@dataclass
class CycleAccount:
    """Accumulated processing demand for a sampled workload."""

    cycles: float = 0.0
    mem_bytes: float = 0.0
    packets: int = 0
    #: Application-payload bytes successfully carried by the sample.
    goodput_bytes: int = 0
    #: Optional per-category breakdown for reports/ablations.
    breakdown: dict = field(default_factory=dict)

    def charge(self, cycles: float, mem_bytes: float = 0.0, category: str = "") -> None:
        """Add *cycles* (and optional memory traffic) to the account."""
        self.cycles += cycles
        self.mem_bytes += mem_bytes
        if category:
            self.breakdown[category] = self.breakdown.get(category, 0.0) + cycles

    def note_packet(self, goodput_bytes: int = 0) -> None:
        """Record one packet processed carrying *goodput_bytes*."""
        self.packets += 1
        self.goodput_bytes += goodput_bytes

    def merge(self, other: "CycleAccount") -> None:
        """Fold another account (e.g. a per-core shard) into this one."""
        self.cycles += other.cycles
        self.mem_bytes += other.mem_bytes
        self.packets += other.packets
        self.goodput_bytes += other.goodput_bytes
        for category, cycles in other.breakdown.items():
            self.breakdown[category] = self.breakdown.get(category, 0.0) + cycles

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def cycles_per_packet(self) -> float:
        """Mean cycles per processed packet."""
        return self.cycles / self.packets if self.packets else 0.0

    def sustainable_goodput_bps(self, spec: CpuSpec, cores: int = 1) -> float:
        """Goodput (bits/s) sustainable on *cores* of *spec*.

        The CPU bound scales the sample by available cycles; the memory
        bound scales it by available DRAM bandwidth; the tighter bound
        wins.  An account with no recorded goodput yields 0.
        """
        if self.goodput_bytes == 0:
            return 0.0
        cpu_bound = float("inf")
        if self.cycles > 0:
            cpu_bound = spec.cycles_per_second(cores) / self.cycles * self.goodput_bytes * 8
        mem_bound = float("inf")
        if self.mem_bytes > 0:
            mem_bound = spec.mem_bw_bytes_per_sec / self.mem_bytes * self.goodput_bytes * 8
        bound = min(cpu_bound, mem_bound)
        return 0.0 if bound == float("inf") else bound

    def utilization_at_goodput(self, spec: CpuSpec, goodput_bps: float, cores: int = 1) -> float:
        """CPU utilization (0..1+) needed to sustain *goodput_bps*.

        Values above 1.0 mean the load is unachievable on the given
        cores — callers typically clamp to 100 % (a saturated server,
        as in Table 1's 100-session parallel-connection column).
        """
        if self.goodput_bytes == 0:
            return 0.0
        scale = goodput_bps / (self.goodput_bytes * 8)
        return self.cycles * scale / spec.cycles_per_second(cores)
