"""Deterministic SLO alerting over registry snapshots.

Production observability is scrapes + alert rules; this module is the
sim-time equivalent.  An :class:`AlertRule` declares a condition over
registry series (absolute value, windowed rate, ratio of two series,
or a label-summed value) plus an optional **for-duration** — the rule
must stay breached that long before it fires, exactly like Prometheus'
``for:`` clause.  An :class:`AlertEngine` evaluates every rule at each
:class:`~repro.obs.timeline.TelemetryTimeline` tick and records
PENDING → FIRING → RESOLVED transitions stamped in sim time.

States are ``ok`` / ``pending`` / ``firing``; a ``firing → ok``
transition *is* the resolution (listed by :meth:`AlertEngine.resolutions`).
Everything is driven by snapshot dictionaries, so two same-seed runs
produce byte-identical transition logs — alerts are test oracles here,
not best-effort notifications.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["AlertRule", "AlertEngine", "adversarial_alert_rules",
           "burn_rate_rules", "default_alert_rules", "default_burn_rules",
           "OK", "PENDING", "FIRING"]

OK = "ok"
PENDING = "pending"
FIRING = "firing"

_OPS = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
}

_KINDS = ("value", "rate", "ratio", "sum", "burn")

#: Human-readable labels for every legal state edge.  ``firing → ok``
#: *is* the resolution; ``pending → ok`` means the condition cleared
#: before the for-duration elapsed (never fired).
_EDGES = {
    (OK, PENDING): "pending",
    (OK, FIRING): "fired",
    (PENDING, FIRING): "fired",
    (PENDING, OK): "cleared",
    (FIRING, OK): "resolved",
}


@dataclass(frozen=True)
class AlertRule:
    """One declarative SLO condition over registry series.

    ``kind`` selects how the observed value is computed at each tick:

    * ``value`` — the snapshot value of ``series`` (0 when absent).
    * ``sum``   — the sum of every snapshot key starting with ``series``
      (collapses a label dimension).
    * ``rate``  — this window's delta of ``series`` divided by the
      window length, in units/second.
    * ``ratio`` — snapshot ``series`` divided by snapshot
      ``denominator``; no data (denominator 0) evaluates to ``None``
      and never breaches.
    * ``burn``  — multi-window error-budget burn rate (the SRE-book
      construction): the burn of ``series`` over ``denominator``
      against ``budget`` is measured over **both** ``fast_window`` and
      ``slow_window`` sim-seconds and the observed value is the *lower*
      of the two, so a breach means the budget is burning at that
      multiple over the short window *and* the long one.  Windows are
      clipped to the available scrape history (a 60 s window on a 3 s
      world measures burn since the first scrape); the engine keeps
      the bounded snapshot log this needs only when burn rules are
      installed.

    ``for_duration`` is sim-seconds the condition must hold before
    PENDING escalates to FIRING; 0 fires immediately.
    """

    name: str
    series: str
    op: str
    threshold: float
    kind: str = "value"
    for_duration: float = 0.0
    denominator: Optional[str] = None
    description: str = ""
    fast_window: float = 0.0
    slow_window: float = 0.0
    budget: float = 1.0

    def __post_init__(self):
        if self.op not in _OPS:
            raise ValueError(f"unknown op {self.op!r} (use {sorted(_OPS)})")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kind {self.kind!r} (use {_KINDS})")
        if self.kind == "ratio" and not self.denominator:
            raise ValueError("ratio rules need a denominator series")
        if self.kind == "burn":
            if not self.denominator:
                raise ValueError("burn rules need a denominator series")
            if self.fast_window <= 0 or self.slow_window < self.fast_window:
                raise ValueError(
                    "burn rules need 0 < fast_window <= slow_window")
            if self.budget <= 0:
                raise ValueError("burn rules need a positive budget")
        if self.for_duration < 0:
            raise ValueError("for_duration must be >= 0")

    def value(self, snapshot: Dict[str, float], deltas: Dict[str, float],
              window: Optional[float]) -> Optional[float]:
        """The observed value at this tick; ``None`` means no data."""
        if self.kind == "value":
            return snapshot.get(self.series, 0.0)
        if self.kind == "sum":
            return sum(v for k, v in snapshot.items() if k.startswith(self.series))
        if self.kind == "rate":
            if not window:
                return None
            return deltas.get(self.series, 0.0) / window
        if self.kind == "burn":
            # Needs scrape history; the engine computes this and hands
            # the result straight to ``breached``.
            return None
        denominator = snapshot.get(self.denominator, 0.0)
        if denominator == 0:
            return None
        return snapshot.get(self.series, 0.0) / denominator

    def breached(self, value: Optional[float]) -> bool:
        """Whether *value* violates the rule (no data never breaches)."""
        return value is not None and _OPS[self.op](value, self.threshold)

    def to_dict(self) -> dict:
        payload = {
            "name": self.name,
            "series": self.series,
            "op": self.op,
            "threshold": self.threshold,
            "kind": self.kind,
            "for_duration": self.for_duration,
            "denominator": self.denominator,
            "description": self.description,
        }
        if self.kind == "burn":
            payload["fast_window"] = self.fast_window
            payload["slow_window"] = self.slow_window
            payload["budget"] = self.budget
        return payload


@dataclass
class AlertEngine:
    """Evaluates rules at each scrape and logs sim-time transitions."""

    rules: Tuple[AlertRule, ...]
    transitions: List[dict] = field(default_factory=list)
    evaluations: int = 0

    def __post_init__(self):
        self.rules = tuple(self.rules)
        names = [rule.name for rule in self.rules]
        if len(set(names)) != len(names):
            raise ValueError("alert rule names must be unique")
        self._state: Dict[str, str] = {rule.name: OK for rule in self.rules}
        self._pending_since: Dict[str, float] = {}
        # Burn rules need scrape history; keep a bounded (time, snapshot)
        # log only when they're installed so value/rate/ratio-only
        # engines pay nothing new.
        self._burn_lookback = max(
            (rule.slow_window for rule in self.rules if rule.kind == "burn"),
            default=0.0,
        )
        self._scrapes: List[Tuple[float, Dict[str, float]]] = []

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, now: float, snapshot: Dict[str, float],
                 deltas: Optional[Dict[str, float]] = None,
                 window: Optional[float] = None) -> None:
        """Run every rule against one scrape (timeline calls this)."""
        if deltas is None:
            deltas = {}
        self.evaluations += 1
        if self._burn_lookback > 0:
            self._scrapes.append((now, dict(snapshot)))
            # Keep one scrape at or before ``now - lookback`` as the
            # far baseline; everything older is unreachable.
            horizon = now - self._burn_lookback
            while len(self._scrapes) >= 2 and self._scrapes[1][0] <= horizon:
                self._scrapes.pop(0)
        for rule in self.rules:
            if rule.kind == "burn":
                value = self._burn_value(rule, now, snapshot)
            else:
                value = rule.value(snapshot, deltas, window)
            state = self._state[rule.name]
            if rule.breached(value):
                if state == OK:
                    if rule.for_duration > 0:
                        self._pending_since[rule.name] = now
                        self._go(rule.name, PENDING, now, value)
                    else:
                        self._go(rule.name, FIRING, now, value)
                elif state == PENDING:
                    if now - self._pending_since[rule.name] >= rule.for_duration:
                        self._go(rule.name, FIRING, now, value)
            elif state != OK:
                # pending cleared, or firing resolved
                self._pending_since.pop(rule.name, None)
                self._go(rule.name, OK, now, value)

    def _burn_value(self, rule: AlertRule, now: float,
                    snapshot: Dict[str, float]) -> Optional[float]:
        """min(burn over fast window, burn over slow window), or None.

        A window's burn is ``(Δseries / Δdenominator) / budget`` between
        the newest scrape at or before ``now - window`` (clipped to the
        oldest available scrape) and the current snapshot.  No earlier
        scrape or no denominator progress means no data.
        """
        history = self._scrapes[:-1]  # the current scrape was just appended
        if not history:
            return None

        def _window_burn(window: float) -> Optional[float]:
            target = now - window
            base = None
            for time, snap in reversed(history):
                if time <= target:
                    base = snap
                    break
            if base is None:
                base = history[0][1]
            err = snapshot.get(rule.series, 0.0) - base.get(rule.series, 0.0)
            total = (snapshot.get(rule.denominator, 0.0)
                     - base.get(rule.denominator, 0.0))
            if total <= 0:
                return None
            return (err / total) / rule.budget

        fast = _window_burn(rule.fast_window)
        slow = _window_burn(rule.slow_window)
        if fast is None or slow is None:
            return None
        return fast if fast <= slow else slow

    def _go(self, name: str, to_state: str, now: float,
            value: Optional[float]) -> None:
        from_state = self._state[name]
        self._state[name] = to_state
        self.transitions.append({
            "time": now,
            "rule": name,
            "from": from_state,
            "to": to_state,
            "value": value,
        })

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def state(self, name: str) -> str:
        """The current state of one rule."""
        return self._state[name]

    def states(self) -> Dict[str, str]:
        """Current state of every rule, sorted by rule name."""
        return dict(sorted(self._state.items()))

    def firing(self) -> List[str]:
        """Names of rules currently firing."""
        return sorted(name for name, state in self._state.items()
                      if state == FIRING)

    def firings(self) -> List[dict]:
        """All transitions into FIRING, in order."""
        return [t for t in self.transitions if t["to"] == FIRING]

    def resolutions(self) -> List[dict]:
        """All FIRING→OK transitions (the resolutions), in order."""
        return [t for t in self.transitions
                if t["from"] == FIRING and t["to"] == OK]

    def history(self, rule: Optional[str] = None) -> List[dict]:
        """The deterministic sim-time transition history, with edges.

        Every recorded transition, in evaluation order, annotated with
        a global sequence number and the edge label (``pending`` /
        ``fired`` / ``resolved`` / ``cleared``) — the evidence format
        canary verdicts cite.  Flapping sequences (resolved →
        re-pending → re-fired) appear in full: the engine records one
        entry per state change and never coalesces repeats.  *rule*
        filters to one rule while keeping global sequence numbers.
        """
        entries = []
        for seq, transition in enumerate(self.transitions):
            if rule is not None and transition["rule"] != rule:
                continue
            entry = dict(transition)
            entry["seq"] = seq
            entry["edge"] = _EDGES[(transition["from"], transition["to"])]
            entries.append(entry)
        return entries

    def states_at(self, time: float) -> Dict[str, str]:
        """Every rule's state as of sim *time* (inclusive), by name.

        Reconstructed from the transition log, so it works on finished
        engines — the canary controller replays the log to evaluate
        each rollout stage retrospectively at its observation horizon.
        """
        states = {rule.name: OK for rule in self.rules}
        for transition in self.transitions:
            if transition["time"] <= time:
                states[transition["rule"]] = transition["to"]
        return dict(sorted(states.items()))

    def firing_at(self, time: float) -> List[str]:
        """Names of rules in FIRING state as of sim *time*."""
        return sorted(name for name, state in self.states_at(time).items()
                      if state == FIRING)

    def fired_by(self, time: float) -> List[str]:
        """Names of rules that entered FIRING at or before sim *time*."""
        return sorted({t["rule"] for t in self.transitions
                       if t["to"] == FIRING and t["time"] <= time})

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_json(self, indent: Optional[int] = None) -> str:
        """Byte-deterministic JSON: rules, history, final states."""
        payload = {
            "rules": [rule.to_dict() for rule in self.rules],
            "transitions": self.transitions,
            "history": self.history(),
            "states": self.states(),
            "evaluations": self.evaluations,
        }
        return json.dumps(payload, sort_keys=True, indent=indent,
                          separators=(",", ":") if indent is None else None)


def default_alert_rules(gateway: str = "pxgw") -> Tuple[AlertRule, ...]:
    """The stock SLO rules for one observed PXGW.

    These encode the paper's operating envelope: the gateway should be
    merging (else PX costs cycles for nothing), not dropping, healthy,
    and hitting its PMTU clamp cache.
    """
    labels = f'{{gateway="{gateway}"}}'
    return (
        AlertRule(
            name="merge-ratio-floor",
            kind="ratio",
            series=f"px_gateway_merged_packets_total{labels}",
            denominator=f"px_gateway_rx_packets_total{labels}",
            op="<", threshold=0.02, for_duration=0.2,
            description="Merged-packet share of ingress collapsed: the "
                        "delayed-merge engine is idling while still "
                        "charging per-packet cycles.",
        ),
        AlertRule(
            name="drop-rate-ceiling",
            kind="rate",
            series=f"px_gateway_dropped_packets_total{labels}",
            op=">", threshold=0.0,
            description="The gateway dropped packets this window "
                        "(no-route or malformed caravans).",
        ),
        AlertRule(
            name="health-degraded-dwell",
            kind="value",
            series=f"px_health_state{labels}",
            op=">=", threshold=1, for_duration=0.1,
            description="Health monitor away from HEALTHY for 100 ms — "
                        "the datapath is flushing merges or bypassing.",
        ),
        AlertRule(
            name="pmtu-cache-miss-spike",
            kind="rate",
            series=f"px_pmtu_cache_misses_total{labels}",
            op=">", threshold=200.0,
            description="PMTU clamp-cache miss burst: outbound splits "
                        "are re-probing instead of reusing cached PMTUs.",
        ),
    )


def burn_rate_rules(series: str, denominator: str) -> Tuple[AlertRule, ...]:
    """Multi-window burn-rate rules over an error/total series pair.

    Two alarms per the multiwindow construction, scaled to sim time:
    a **fast** pair (1 s / 5 s windows at 14.4× burn — the paging
    alarm) and a **slow** pair (5 s / 60 s windows at 6× burn — the
    ticket alarm).  The tolerated error fraction of ``denominator`` is
    0.1%.
    """
    budget = 1e-3
    return (
        AlertRule(
            name="error-budget-burn-fast",
            kind="burn",
            series=series,
            denominator=denominator,
            op=">=", threshold=14.4,
            fast_window=1.0, slow_window=5.0, budget=budget,
            description="Error budget burning at >=14.4x over both the "
                        "1 s and 5 s windows — page-severity burn.",
        ),
        AlertRule(
            name="error-budget-burn-slow",
            kind="burn",
            series=series,
            denominator=denominator,
            op=">=", threshold=6.0,
            fast_window=5.0, slow_window=60.0, budget=budget,
            description="Error budget burning at >=6x over both the "
                        "5 s and 60 s windows — sustained burn.",
        ),
    )


def default_burn_rules() -> Tuple[AlertRule, ...]:
    """The stock burn-rate pair: dropped packets against ingress."""
    return burn_rate_rules(
        series='px_gateway_dropped_packets_total{gateway="pxgw"}',
        denominator='px_gateway_rx_packets_total{gateway="pxgw"}',
    )


def adversarial_alert_rules() -> Tuple[AlertRule, ...]:
    """The stock rules plus attack-detection rules.

    Used by :mod:`repro.chaos.attacks`: a PMTUD attack should be
    *visible*, not just survived.  A forged-report flood shows up twice
    — the hardened prober's rejection counter spikes, and the starved
    clamp cache breaches the stock miss-rate ceiling.
    """
    return default_alert_rules() + (
        AlertRule(
            name="pmtud-rejected-reports",
            kind="rate",
            series='px_pmtud_rejected_reports_total{agent="fpmtud"}',
            op=">", threshold=100.0,
            description="The prober is rejecting fragment reports at "
                        "flood rate — forged or lying reports are "
                        "being thrown at the discovery path.",
        ),
        AlertRule(
            name="pmtu-cache-poison-attempts",
            kind="rate",
            series='px_pmtu_cache_poison_rejected_total{gateway="pxgw"}',
            op=">", threshold=20.0,
            description="The PMTU cache is refusing unsolicited "
                        "learns (implausible or raising values) at a "
                        "rate consistent with active poisoning.",
        ),
    )
