"""Retry policies: jittered exponential backoff and probe budgets.

Every retry loop in the resilience layer (F-PMTUD re-probes, caravan
capability queries) shares these two
primitives:

* :class:`BackoffPolicy` — the classic exponential backoff with full
  deterministic jitter: attempt *n* waits
  ``initial * multiplier**(n-1)`` seconds, capped at ``max_delay``,
  scaled by a seeded ±``jitter`` fraction.  Jitter decorrelates
  concurrent retriers (a thundering herd of probers would otherwise
  re-collide forever), while the explicit rng keeps whole experiments
  replayable.
* :class:`RetryBudget` — a hard cap on attempts across one logical
  operation.  Backoff bounds the *rate* of retries; the budget bounds
  their *total*, which is what keeps a permanent blackhole from
  consuming probe capacity forever.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

__all__ = ["BackoffPolicy", "RetryBudget"]


@dataclass(frozen=True)
class BackoffPolicy:
    """Jittered exponential backoff between retry attempts."""

    #: Delay before the second attempt (the first fires immediately).
    initial: float = 0.2
    multiplier: float = 2.0
    max_delay: float = 5.0
    #: Fractional jitter: the delay is scaled by ``1 ± jitter``.
    jitter: float = 0.1
    #: Total attempts allowed (first try included).
    max_attempts: int = 4

    def __post_init__(self):
        if self.initial <= 0 or self.multiplier < 1.0 or self.max_delay <= 0:
            raise ValueError("backoff delays must be positive and non-shrinking")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.max_attempts < 1:
            raise ValueError("at least one attempt is required")

    def delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Seconds to wait after failed attempt *attempt* (1-based).

        Deterministic given *rng*; without one, the un-jittered delay
        is returned.
        """
        if attempt < 1:
            raise ValueError("attempts are 1-based")
        base = min(self.initial * self.multiplier ** (attempt - 1), self.max_delay)
        if rng is None or self.jitter == 0.0:
            return base
        return base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))

    def exhausted(self, attempt: int) -> bool:
        """True once *attempt* tries have been consumed."""
        return attempt >= self.max_attempts


class RetryBudget:
    """A consumable allowance of attempts for one logical operation."""

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError("budget must allow at least one attempt")
        self.limit = limit
        self.spent = 0

    @property
    def remaining(self) -> int:
        return max(0, self.limit - self.spent)

    def take(self, n: int = 1) -> bool:
        """Consume *n* attempts; False (and no charge) if unaffordable."""
        if self.spent + n > self.limit:
            return False
        self.spent += n
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RetryBudget {self.spent}/{self.limit}>"
