"""The PMTU cache: TTL'd entries, route-change flush, poison defenses.

Path MTU is a property of the *current* route, so a learned value has
two expiry conditions:

* **age** — RFC 1191 §6.3 recommends re-probing on the order of
  minutes; every entry carries an absolute ``expires_at``;
* **route change** — when the routing table under the gateway shifts,
  a cached PMTU may describe a path that no longer exists.  The cache
  can :meth:`watch` a :class:`repro.net.routing.RoutingTable` and
  flushes itself on any change, which is strictly conservative (a
  re-probe costs one RTT; a stale entry costs blackholed jumbos).

The split engine consults the cache per packet (satellite fix: a flow
whose MSS was re-clamped mid-stream must never be split to segments
larger than the *live* path MTU), so :meth:`lookup` is a dict probe.

Adversarial hardening (see :mod:`repro.pmtud.hardening`): entries are
keyed ``(dst, flow)`` where ``flow`` defaults to the ``None`` wildcard.
A :class:`~repro.pmtud.hardening.HardeningPolicy` with
``per_flow_cache`` stores flow-attributed learns under their own key,
so a poisoned entry for one flow behind a shared destination address
cannot shadow its neighbours' (the off-path cache-poisoning attack on
address-sharing deployments).  Every entry carries a ``trust``
provenance tag — ``probe`` (solicited measurement), ``icmp`` /
``report`` (unsolicited hints), ``static`` — and with
``reject_raises`` an unsolicited hint may lower a cached value
(fail-safe) but never raise one: raising is how an attacker converts
a safe clamp into a blackhole.  Rejections are counted in
``poison_rejected``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..pmtud.hardening import MIN_PLAUSIBLE_PMTU, HardeningPolicy

__all__ = ["PmtuEntry", "PmtuCache", "TRUST_RANK"]

#: Provenance ordering: a live higher-trust entry cannot be *raised*
#: by a lower-trust learn under ``reject_raises``.
TRUST_RANK = {"static": 0, "icmp": 1, "report": 1, "probe": 2}

#: Trust tags the endpoint did not solicit; raises from these are the
#: poison vector.
_UNSOLICITED = ("icmp", "report")

#: Default trust derived from the legacy ``source`` tag.
_SOURCE_TRUST = {
    "fpmtud": "probe",
    "plpmtud": "probe",
    "fallback": "static",
    "static": "static",
    "ptb": "icmp",
    "report": "report",
}

@dataclass
class PmtuEntry:
    """One cached path-MTU verdict."""

    pmtu: int
    learned_at: float
    expires_at: float
    #: How the value was obtained: "fpmtud", "plpmtud", "fallback",
    #: "ptb" (ICMP hint), or "static" (operator-installed).
    source: str = "static"
    #: Provenance class used by the poison guards: "probe", "icmp",
    #: "report", or "static".
    trust: str = "static"
    #: The flow 5-tuple this entry is scoped to, or None (wildcard).
    flow: Optional[tuple] = None

    def expired(self, now: float) -> bool:
        return now >= self.expires_at


class PmtuCache:
    """Flow-scoped PMTU store with TTL, invalidation, and trust guards."""

    def __init__(self, default_ttl: float = 30.0, policy=None):
        if default_ttl <= 0:
            raise ValueError("TTL must be positive")
        self.default_ttl = default_ttl
        #: Any object with ``per_flow_cache`` / ``reject_raises`` /
        #: ``pmtu_bounds`` attributes (duck-typed HardeningPolicy); the
        #: unhardened default is the original trusting per-destination
        #: store.
        self.policy = policy if policy is not None else HardeningPolicy.unhardened()
        self._entries: Dict[Tuple[int, Optional[tuple]], PmtuEntry] = {}
        self.hits = 0
        self.misses = 0
        self.expirations = 0
        self.invalidations = 0
        #: Learns refused by the trust/bounds guards.
        self.poison_rejected = 0
        #: Live entries dropped because a fresh probe contradicted them.
        self.contradictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, dst: int) -> bool:
        return any(key[0] == dst for key in self._entries)

    # ------------------------------------------------------------------
    def _key(self, dst: int, flow: Optional[tuple]) -> Tuple[int, Optional[tuple]]:
        if flow is not None and self.policy.per_flow_cache:
            return (dst, tuple(flow))
        return (dst, None)

    def _shadowed(self, dst: int, flow: Optional[tuple],
                  now: float) -> Optional[PmtuEntry]:
        """The live entry a lookup for (dst, flow) would currently see."""
        for key in ((dst, tuple(flow)) if flow is not None else None, (dst, None)):
            if key is None:
                continue
            entry = self._entries.get(key)
            if entry is not None and not entry.expired(now):
                return entry
        return None

    def learn(
        self,
        dst: int,
        pmtu: int,
        now: float,
        ttl: Optional[float] = None,
        source: str = "static",
        flow: Optional[tuple] = None,
        trust: Optional[str] = None,
    ) -> Optional[PmtuEntry]:
        """Record *pmtu* toward *dst*, valid for *ttl* seconds.

        Returns the stored entry, or ``None`` when a hardening guard
        rejected the learn (counted in :attr:`poison_rejected`).
        """
        if pmtu < 68:  # the IPv4 absolute minimum
            raise ValueError(f"implausible PMTU {pmtu}")
        if trust is None:
            trust = _SOURCE_TRUST.get(source, "static")
        key = self._key(dst, flow)
        if (self.policy.pmtu_bounds and trust in _UNSOLICITED
                and pmtu < MIN_PLAUSIBLE_PMTU):
            self.poison_rejected += 1
            return None
        if self.policy.reject_raises and trust in _UNSOLICITED:
            shadowed = self._shadowed(dst, flow, now)
            if shadowed is not None and pmtu > shadowed.pmtu:
                self.poison_rejected += 1
                return None
        entry = PmtuEntry(
            pmtu=pmtu,
            learned_at=now,
            expires_at=now + (ttl if ttl is not None else self.default_ttl),
            source=source,
            trust=trust,
            flow=key[1],
        )
        self._entries[key] = entry
        return entry

    def lookup(self, dst: int, now: float,
               flow: Optional[tuple] = None) -> Optional[PmtuEntry]:
        """The live entry for *(dst, flow)*, or None (miss or expired).

        A flow-scoped entry wins over the destination wildcard; an
        expired flow entry falls back to a live wildcard.  Exactly one
        hit or miss is counted per call.
        """
        keys = []
        if flow is not None:
            keys.append((dst, tuple(flow)))
        keys.append((dst, None))
        for key in keys:
            entry = self._entries.get(key)
            if entry is None:
                continue
            if entry.expired(now):
                del self._entries[key]
                self.expirations += 1
                continue
            self.hits += 1
            return entry
        self.misses += 1
        return None

    def invalidate(self, dst: Optional[int] = None,
                   flow: Optional[tuple] = None) -> int:
        """Drop one flow's entry, a destination's entries, or all.

        ``invalidate(dst)`` removes every entry for *dst* (wildcard and
        flow-scoped alike); ``invalidate(dst, flow)`` removes just that
        flow's.  Returns the number removed.
        """
        if dst is None:
            removed = len(self._entries)
            self._entries.clear()
        elif flow is not None:
            removed = 1 if self._entries.pop((dst, tuple(flow)), None) is not None else 0
        else:
            doomed = [key for key in self._entries if key[0] == dst]
            for key in doomed:
                del self._entries[key]
            removed = len(doomed)
        self.invalidations += removed
        return removed

    def reconcile(self, dst: int, measured_pmtu: int, now: float) -> int:
        """Drop live entries for *dst* that a fresh probe contradicts.

        A solicited measurement is stronger evidence than anything
        cached: entries disagreeing with it (poisoned or stale) must
        not be reused.  Returns the number invalidated.
        """
        doomed = [
            key for key, entry in self._entries.items()
            if key[0] == dst and not entry.expired(now)
            and entry.pmtu != measured_pmtu
        ]
        for key in doomed:
            del self._entries[key]
        self.contradictions += len(doomed)
        self.invalidations += len(doomed)
        return len(doomed)

    def peek(self, dst: int, now: float,
             flow: Optional[tuple] = None) -> Optional[PmtuEntry]:
        """A lookup that counts nothing and expires nothing."""
        return self._shadowed(dst, flow, now)

    def watch(self, table) -> None:
        """Flush the whole cache whenever *table* (a RoutingTable) changes."""
        table.on_change(lambda: self.invalidate())

    def summary(self) -> Dict[str, int]:
        """Counters for the resilience report."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "expirations": self.expirations,
            "invalidations": self.invalidations,
            "poison_rejected": self.poison_rejected,
            "contradictions": self.contradictions,
        }
