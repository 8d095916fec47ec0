"""Declarative guardrail diffs over twin registry snapshots.

Alert rules judge the candidate against absolute SLO thresholds; the
guardrails here judge it against the **baseline twin** — relative
tolerance bands around the service-level indicators the paper's
operating envelope cares about: merge conversion ratio, gateway drops,
over-eMTU egress, egress packet amplification (micro-segmentation from
a poisoned or mis-sized clamp), and p95 gateway residency.

Each :class:`Guardrail` names one indicator and the direction that is
*good* for it.  A candidate breaches when it is worse than the
baseline by more than ``rel_tolerance`` (fractional) plus
``abs_tolerance`` (absolute, so a zero baseline still has slack
semantics).  Indicators with no data (``None``) never breach —
identical to the alert rules' no-data convention.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["Guardrail", "default_guardrails", "histogram_quantile",
           "snapshot_indicators", "evaluate_guardrails"]

#: The ``le`` label inside a bucket series' label set, wherever it sits.
_LE = re.compile(r'(?:^|,)le="([^"]*)"')

#: The direction in which the candidate may safely move.
_DIRECTIONS = ("higher", "lower")


@dataclass(frozen=True)
class Guardrail:
    """One tolerance band around a baseline-relative indicator.

    ``direction="lower"`` means lower is better (drops, latency): the
    candidate breaches when it exceeds
    ``baseline * (1 + rel_tolerance) + abs_tolerance``.
    ``direction="higher"`` means higher is better (merge ratio): the
    candidate breaches when it falls below
    ``baseline * (1 - rel_tolerance) - abs_tolerance``.
    """

    name: str
    indicator: str
    direction: str
    rel_tolerance: float = 0.0
    abs_tolerance: float = 0.0
    description: str = ""

    def __post_init__(self):
        if self.direction not in _DIRECTIONS:
            raise ValueError(
                f"unknown direction {self.direction!r} (use {_DIRECTIONS})")
        if self.rel_tolerance < 0 or self.abs_tolerance < 0:
            raise ValueError("tolerances must be >= 0")

    def allowed(self, baseline: float) -> float:
        """The worst candidate value tolerated for *baseline*."""
        if self.direction == "lower":
            return baseline * (1 + self.rel_tolerance) + self.abs_tolerance
        return baseline * (1 - self.rel_tolerance) - self.abs_tolerance

    def breached(self, baseline: Optional[float],
                 candidate: Optional[float]) -> bool:
        """Whether the candidate is outside the band (no data: never)."""
        if baseline is None or candidate is None:
            return False
        allowed = self.allowed(baseline)
        if self.direction == "lower":
            return candidate > allowed
        return candidate < allowed

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "indicator": self.indicator,
            "direction": self.direction,
            "rel_tolerance": self.rel_tolerance,
            "abs_tolerance": self.abs_tolerance,
            "description": self.description,
        }


def default_guardrails() -> tuple:
    """The stock tolerance bands for a PXGW canary."""
    return (
        Guardrail(
            name="merge-ratio",
            indicator="merge_ratio",
            direction="higher",
            rel_tolerance=0.30, abs_tolerance=0.01,
            description="Merged-packet share of ingress must stay "
                        "within 30% of the baseline twin: a collapsed "
                        "ratio means PX is charging cycles without "
                        "converting packets.",
        ),
        Guardrail(
            name="gateway-drops",
            indicator="drop_count",
            direction="lower",
            description="Zero tolerance: any gateway drop the baseline "
                        "twin did not also take is a regression.",
        ),
        Guardrail(
            name="oversize-egress",
            indicator="oversize_egress",
            direction="lower",
            description="Zero tolerance: over-eMTU packets offered to "
                        "the external wire (counted at the egress tap, "
                        "including the link's silent drop-mtu losses) "
                        "mean the candidate believes a wrong MTU.",
        ),
        Guardrail(
            name="egress-amplification",
            indicator="egress_amplification",
            direction="lower",
            rel_tolerance=0.25, abs_tolerance=0.05,
            description="Egress-to-ingress packet ratio: a jump means "
                        "micro-segmentation — splits clamped far below "
                        "path MTU, e.g. from a poisoned PMTU cache.",
        ),
        Guardrail(
            name="p95-residency",
            indicator="p95_residency",
            direction="lower",
            rel_tolerance=1.00, abs_tolerance=0.001,
            description="Gateway residency p95 may at most double "
                        "(+1 ms): beyond that the merge engines are "
                        "holding payload, e.g. a flush-timer "
                        "regression.",
        ),
    )


def histogram_quantile(snapshot: Dict[str, float], metric: str,
                       quantile: float = 0.95) -> Optional[float]:
    """The *quantile* upper-bound estimate from cumulative buckets.

    Prometheus-style: the smallest bucket bound whose cumulative count
    reaches ``quantile * total``.  The histogram may carry labels of its
    own; raises ``ValueError`` when *snapshot* holds more than one label
    set for *metric*.  Returns ``None`` when the histogram is absent or
    empty.
    """
    prefix = f"{metric}_bucket{{"
    buckets = []
    series = set()
    for key, value in snapshot.items():
        if not key.startswith(prefix):
            continue
        labels = key[len(prefix):-1]
        match = _LE.search(labels)
        if match is None:
            continue
        series.add(labels[:match.start()] + labels[match.end():])
        bound = match.group(1)
        buckets.append((math.inf if bound == "+Inf" else float(bound), value))
    if len(series) > 1:
        raise ValueError(f"{metric} has {len(series)} label sets in the snapshot")
    if not buckets:
        return None
    buckets.sort()
    total = buckets[-1][1]
    if total <= 0:
        return None
    target = quantile * total
    for bound, cumulative in buckets:
        if cumulative >= target:
            return bound
    return buckets[-1][0]


def snapshot_indicators(snapshot: Dict[str, float],
                        oversize_egress: int = 0) -> Dict[str, Optional[float]]:
    """The guardrail indicators for one twin at one horizon.

    *oversize_egress* comes from the twin's egress tap (it is link
    evidence, not a registry series).
    """
    labels = '{gateway="pxgw"}'
    rx = snapshot.get(f"px_gateway_rx_packets_total{labels}", 0.0)
    tx = snapshot.get(f"px_gateway_tx_packets_total{labels}", 0.0)
    merged = snapshot.get(f"px_gateway_merged_packets_total{labels}", 0.0)
    dropped = snapshot.get(f"px_gateway_dropped_packets_total{labels}", 0.0)
    return {
        "merge_ratio": merged / rx if rx else None,
        "drop_count": dropped,
        "oversize_egress": float(oversize_egress),
        "egress_amplification": tx / rx if rx else None,
        "p95_residency": histogram_quantile(
            snapshot, "px_gateway_residency_seconds", 0.95),
    }


def evaluate_guardrails(
    guardrails,
    baseline: Dict[str, Optional[float]],
    candidate: Dict[str, Optional[float]],
) -> List[dict]:
    """Every guardrail breach of *candidate* against *baseline*.

    Returns one dict per breach (empty list = all bands held), each
    citing the indicator values and the allowed bound — the evidence
    the canary verdict records.
    """
    breaches = []
    for guardrail in guardrails:
        base = baseline.get(guardrail.indicator)
        cand = candidate.get(guardrail.indicator)
        if guardrail.breached(base, cand):
            breaches.append({
                "guardrail": guardrail.name,
                "indicator": guardrail.indicator,
                "direction": guardrail.direction,
                "baseline": base,
                "candidate": cand,
                "allowed": guardrail.allowed(base),
                "description": guardrail.description,
            })
    return breaches
