"""The PMTU discovery fallback chain: F-PMTUD → PLPMTUD → 1500 B.

F-PMTUD (§4.2) is the fast path — one RTT, no ICMP — but it depends on
the probe's *fragments* reaching the remote daemon and the daemon's
report reaching us.  A middlebox that drops fragments (common; see
PAPERS.md on PMTUD blackholes) or a silent daemon kills it.  Classical
PMTUD is no fallback at all: it is the ICMP-dependent mechanism the
paper is escaping.  So the chain is:

1. **F-PMTUD**, retried under a jittered :class:`BackoffPolicy` and a
   hard :class:`RetryBudget` — a permanent blackhole must not consume
   probe capacity forever;
2. **PLPMTUD** (RFC 4821) — slow (multi-RTT binary search) but immune
   to both ICMP and fragment blackholes because its probes are small
   DF packets acknowledged end-to-end;
3. **conservative 1500 B** — if even PLPMTUD produced nothing better
   than its all-timeouts floor, assume the classic Ethernet MTU (or
   the local MTU, if smaller).  Traffic keeps flowing; it is merely
   not jumbo.

Every outcome is written into a :class:`repro.resilience.PmtuCache`
with a source tag so the resilience report can show *how* each path's
MTU was learned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..pmtud.fpmtud import FPmtudProber, FPmtudResult
from ..pmtud.plpmtud import MIN_PMTU, Plpmtud, PlpmtudResult
from .pmtu_cache import PmtuCache
from .retry import BackoffPolicy, RetryBudget

__all__ = ["DiscoveryOutcome", "ResilientPmtud", "CONSERVATIVE_PMTU"]

#: The never-wrong-on-the-real-Internet fallback (classic Ethernet).
CONSERVATIVE_PMTU = 1500


@dataclass
class DiscoveryOutcome:
    """How one destination's PMTU was finally obtained."""

    dst: int
    pmtu: int
    #: "fpmtud", "plpmtud", or "fallback".
    source: str
    elapsed: float
    fpmtud_attempts: int = 0
    fpmtud_timeouts: int = 0
    plpmtud_result: Optional[PlpmtudResult] = None
    #: (sim-time, event) breadcrumbs for the resilience report.
    trail: List[str] = field(default_factory=list)


class ResilientPmtud:
    """F-PMTUD with retry/backoff and an automatic fallback chain."""

    def __init__(
        self,
        host,
        cache: Optional[PmtuCache] = None,
        backoff: Optional[BackoffPolicy] = None,
        probe_budget: int = 6,
        fpmtud_timeout: float = 0.5,
        seed: int = 0,
        prober: Optional[FPmtudProber] = None,
        plpmtud: Optional[Plpmtud] = None,
    ):
        self.host = host
        self.sim = host.sim
        self.cache = cache if cache is not None else PmtuCache()
        self.backoff = backoff or BackoffPolicy(
            initial=0.2, multiplier=2.0, max_delay=2.0, jitter=0.1, max_attempts=3
        )
        self.probe_budget = probe_budget
        self.fpmtud_timeout = fpmtud_timeout
        self.rng = random.Random(seed)
        self.prober = prober or FPmtudProber(host)
        self.plpmtud = plpmtud or Plpmtud(host)
        #: dst -> in-flight discovery state.
        self._active: Dict[int, dict] = {}
        self.discoveries = 0
        self.fpmtud_successes = 0
        self.plpmtud_fallbacks = 0
        self.conservative_fallbacks = 0
        self.cache_short_circuits = 0

    # ------------------------------------------------------------------
    def discover(
        self,
        dst: int,
        local_mtu: int,
        on_done: Callable[[DiscoveryOutcome], None],
        force: bool = False,
    ) -> None:
        """Resolve the PMTU toward *dst*, preferring the cache.

        *on_done* fires exactly once — synchronously on a cache hit,
        otherwise when the chain converges.  The chain cannot hang: the
        budget bounds F-PMTUD, PLPMTUD's all-timeouts floor bounds the
        search, and the conservative default catches everything else.
        """
        if not force:
            entry = self.cache.lookup(dst, self.sim.now)
            if entry is not None:
                self.cache_short_circuits += 1
                on_done(
                    DiscoveryOutcome(
                        dst=dst,
                        pmtu=entry.pmtu,
                        source=entry.source,
                        elapsed=0.0,
                        trail=["cache-hit"],
                    )
                )
                return
        if dst in self._active:
            self._active[dst]["waiters"].append(on_done)
            return
        self.discoveries += 1
        self._active[dst] = {
            "local_mtu": local_mtu,
            "waiters": [on_done],
            "started_at": self.sim.now,
            "budget": RetryBudget(self.probe_budget),
            "attempt": 0,
            "timeouts": 0,
            "trail": [],
        }
        self._try_fpmtud(dst)

    # ------------------------------------------------------------------
    # Stage 1: F-PMTUD under backoff + budget
    # ------------------------------------------------------------------
    def _try_fpmtud(self, dst: int) -> None:
        state = self._active[dst]
        if not state["budget"].take():
            state["trail"].append("fpmtud-budget-exhausted")
            self._try_plpmtud(dst)
            return
        state["attempt"] += 1
        state["trail"].append(f"fpmtud-probe-{state['attempt']}")
        self.prober.probe(
            dst,
            probe_size=state["local_mtu"],
            on_result=lambda result, dst=dst: self._on_fpmtud_result(dst, result),
            timeout=self.fpmtud_timeout,
            on_timeout=lambda dst=dst: self._on_fpmtud_timeout(dst),
        )

    def _on_fpmtud_result(self, dst: int, result: FPmtudResult) -> None:
        state = self._active.get(dst)
        if state is None:
            return
        self.fpmtud_successes += 1
        state["trail"].append(f"fpmtud-ok-{result.pmtu}")
        self._finish(dst, result.pmtu, "fpmtud")

    def _on_fpmtud_timeout(self, dst: int) -> None:
        state = self._active.get(dst)
        if state is None:
            return
        state["timeouts"] += 1
        state["trail"].append("fpmtud-timeout")
        if self.backoff.exhausted(state["attempt"]):
            state["trail"].append("fpmtud-attempts-exhausted")
            self._try_plpmtud(dst)
            return
        delay = self.backoff.delay(state["attempt"], self.rng)
        self.sim.schedule(delay, self._retry_fpmtud, dst)

    def _retry_fpmtud(self, dst: int) -> None:
        if dst in self._active:
            self._try_fpmtud(dst)

    # ------------------------------------------------------------------
    # Stage 2: PLPMTUD
    # ------------------------------------------------------------------
    def _try_plpmtud(self, dst: int) -> None:
        state = self._active[dst]
        self.plpmtud_fallbacks += 1
        state["trail"].append("plpmtud-start")
        try:
            self.plpmtud.discover(
                dst,
                state["local_mtu"],
                lambda result, dst=dst: self._on_plpmtud_done(dst, result),
            )
        except RuntimeError:
            # The shared searcher is busy with another destination;
            # skip straight to the conservative default rather than
            # queueing behind a multi-RTT search.
            state["trail"].append("plpmtud-busy")
            self._conservative(dst)

    def _on_plpmtud_done(self, dst: int, result: PlpmtudResult) -> None:
        state = self._active.get(dst)
        if state is None:
            return
        state["plpmtud_result"] = result
        # An all-timeouts search never saw a single ack: the floor it
        # returns is a guess, not a measurement.  Fall through to the
        # conservative default instead of trusting it.
        if result.pmtu <= MIN_PMTU and result.timeouts > 0:
            state["trail"].append("plpmtud-blackhole")
            self._conservative(dst)
            return
        state["trail"].append(f"plpmtud-ok-{result.pmtu}")
        self._finish(dst, result.pmtu, "plpmtud")

    # ------------------------------------------------------------------
    # Stage 3: the conservative default
    # ------------------------------------------------------------------
    def _conservative(self, dst: int) -> None:
        state = self._active[dst]
        pmtu = min(CONSERVATIVE_PMTU, state["local_mtu"])
        self.conservative_fallbacks += 1
        state["trail"].append(f"conservative-{pmtu}")
        self._finish(dst, pmtu, "fallback")

    # ------------------------------------------------------------------
    def _finish(self, dst: int, pmtu: int, source: str) -> None:
        state = self._active.pop(dst)
        # A fresh measurement outranks anything cached: drop every live
        # entry it contradicts (a poisoned or stale value must not be
        # reused by flows whose key the learn below does not overwrite).
        dropped = self.cache.reconcile(dst, pmtu, self.sim.now)
        if dropped:
            state["trail"].append(f"cache-reconciled-{dropped}")
        self.cache.learn(dst, pmtu, self.sim.now, source=source)
        outcome = DiscoveryOutcome(
            dst=dst,
            pmtu=pmtu,
            source=source,
            elapsed=self.sim.now - state["started_at"],
            fpmtud_attempts=state["attempt"],
            fpmtud_timeouts=state["timeouts"],
            plpmtud_result=state.get("plpmtud_result"),
            trail=state["trail"],
        )
        for waiter in state["waiters"]:
            waiter(outcome)

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Counters for the resilience report."""
        return {
            "discoveries": self.discoveries,
            "in_flight": len(self._active),
            "fpmtud_successes": self.fpmtud_successes,
            "plpmtud_fallbacks": self.plpmtud_fallbacks,
            "conservative_fallbacks": self.conservative_fallbacks,
            "cache_short_circuits": self.cache_short_circuits,
            "cache": self.cache.summary(),
        }
