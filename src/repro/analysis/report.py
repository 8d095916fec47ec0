"""Uniform paper-vs-measured reporting for the benchmark harness.

Every benchmark prints one :class:`ExperimentReport`: the experiment id
(table/figure number), one row per reported quantity, and the ratio of
measured to paper values.  ``EXPERIMENTS.md`` is generated from the
same rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["ReportRow", "ExperimentReport", "format_bps"]


def format_bps(value: float) -> str:
    """Human-readable bits/second."""
    if value >= 1e12:
        return f"{value / 1e12:.2f} Tbps"
    if value >= 1e9:
        return f"{value / 1e9:.1f} Gbps"
    if value >= 1e6:
        return f"{value / 1e6:.1f} Mbps"
    return f"{value:.0f} bps"


@dataclass
class ReportRow:
    """One reported quantity: paper's value vs ours."""

    metric: str
    paper: Optional[float]
    measured: float
    unit: str = ""
    note: str = ""

    @property
    def ratio(self) -> Optional[float]:
        if self.paper in (None, 0):
            return None
        return self.measured / self.paper


@dataclass
class ExperimentReport:
    """All rows for one table/figure reproduction."""

    experiment: str
    description: str
    rows: List[ReportRow] = field(default_factory=list)

    def add(self, metric: str, paper: Optional[float], measured: float,
            unit: str = "", note: str = "") -> ReportRow:
        """Record one quantity."""
        row = ReportRow(metric=metric, paper=paper, measured=measured,
                        unit=unit, note=note)
        self.rows.append(row)
        return row

    def render(self) -> str:
        """A fixed-width table for terminal output."""
        lines = [f"== {self.experiment}: {self.description} =="]
        header = f"{'metric':<44} {'paper':>12} {'measured':>12} {'ratio':>7}"
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            paper = f"{row.paper:g}" if row.paper is not None else "-"
            ratio = f"{row.ratio:.2f}x" if row.ratio is not None else "-"
            unit = f" {row.unit}" if row.unit else ""
            note = f"   [{row.note}]" if row.note else ""
            lines.append(
                f"{row.metric:<44} {paper:>12} {row.measured:>12g} {ratio:>7}{unit}{note}"
            )
        return "\n".join(lines)

    def within(self, metric: str, rel_tolerance: float) -> bool:
        """True if *metric*'s measured value is within tolerance of paper."""
        for row in self.rows:
            if row.metric == metric and row.paper:
                return abs(row.measured - row.paper) <= rel_tolerance * abs(row.paper)
        raise KeyError(f"no comparable row named {metric!r}")
