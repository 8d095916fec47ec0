"""Hardening policy for the PMTUD probe/cache path.

The paper's F-PMTUD design (§4.2) trusts two inputs it does not
authenticate: the daemon's fragment-size report and — on the classical
fallback — ICMP fragmentation-needed messages.  Both are forgeable by
an off-path attacker who can guess a 4-tuple (trivial under address
sharing; see PAPERS.md on off-path PMTUD attacks), and both feed the
PXGW's split-clamp cache, so one accepted lie mis-sizes every
subsequent outbound segment of the victim flow.

:class:`HardeningPolicy` is the single knob bundle for the defenses,
each independently togglable so the adversarial corpus
(:mod:`repro.chaos.attacks`) can demonstrate every defense
*differentially* — the unhardened stack measurably breaks under each
attack, the hardened stack does not:

* ``probe_nonces`` — probe ids drawn from a seeded CSPRNG-style 32-bit
  space instead of a guessable sequential counter; a forged report or
  echo-ack must hit a live nonce to be heard at all.
* ``pmtu_bounds`` — accepted estimates are clamped to the plausible
  band ``[576, min(probe size, link MTU)]``; absurd values (covert
  channels, micro-segmentation bombs, inflation past the first hop)
  are rejected and counted.
* ``reject_raises`` — an unsolicited report may *lower* a cached PMTU
  (fail-safe) but never raise one learned from a probe; raising is how
  an attacker turns a safe clamp into a blackhole.
* ``rate_limit_reports`` — unsolicited PTB acceptance runs through a
  deterministic sim-time token bucket, bounding cache churn under a
  forged-PTB flood.
* ``validate_inner`` — the quoted inner header of a PTB must name a
  source address/port this endpoint actually uses, not just the
  destination (RFC 5927-style origin validation).
* ``per_flow_cache`` — PMTU entries are keyed per flow, not per
  destination, so a poisoned entry for one flow behind a shared
  address cannot shadow its neighbours'.

Every rejection is counted (``rejected_reports`` on the agents,
``poison_rejected`` on the cache) and exported through
:func:`repro.obs.collectors.observe_pmtud`, so an attack that the
hardened stack absorbs is still *visible* — the detection story the
alert rules in :func:`repro.obs.alerts.adversarial_alert_rules` build
on.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["HardeningPolicy", "ReportRateLimiter", "MIN_PLAUSIBLE_PMTU"]

#: Below this the value cannot be a real IPv4 path MTU under RFC 791
#: reassembly guarantees; anything smaller in a report/PTB is hostile
#: (or broken, which deserves the same treatment).
MIN_PLAUSIBLE_PMTU = 576

#: Sustained unsolicited-PTB acceptance rate (messages/second) when
#: ``rate_limit_reports`` is on.
REPORT_RATE = 10.0
#: Burst allowance of that token bucket.
REPORT_BURST = 4


@dataclass(frozen=True)
class HardeningPolicy:
    """Togglable defenses for the PMTUD probe/cache path."""

    probe_nonces: bool = True
    pmtu_bounds: bool = True
    reject_raises: bool = True
    rate_limit_reports: bool = True
    validate_inner: bool = True
    per_flow_cache: bool = True

    @classmethod
    def hardened(cls) -> "HardeningPolicy":
        """Every defense on (the recommended deployment posture)."""
        return cls()

    @classmethod
    def unhardened(cls) -> "HardeningPolicy":
        """Every defense off — the paper's original trusting stack."""
        return cls(
            probe_nonces=False,
            pmtu_bounds=False,
            reject_raises=False,
            rate_limit_reports=False,
            validate_inner=False,
            per_flow_cache=False,
        )


class ReportRateLimiter:
    """A deterministic sim-time token bucket for unsolicited reports.

    No wall clock, no randomness: two same-seed runs make identical
    accept/reject decisions, which keeps attack scenarios replayable.
    """

    def __init__(self, rate: float = REPORT_RATE, burst: int = REPORT_BURST):
        if rate <= 0 or burst < 1:
            raise ValueError("rate must be positive and burst >= 1")
        self.rate = rate
        self.burst = burst
        self._tokens = float(burst)
        self._last: float = 0.0
        self.allowed = 0
        self.throttled = 0

    def allow(self, now: float) -> bool:
        """Spend one token if available; refills at ``rate``/second."""
        if now > self._last:
            self._tokens = min(float(self.burst),
                               self._tokens + (now - self._last) * self.rate)
            self._last = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self.allowed += 1
            return True
        self.throttled += 1
        return False
