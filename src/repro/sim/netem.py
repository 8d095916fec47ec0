"""netem-style link impairment: delay, jitter, loss, burst loss, reordering.

The paper's WAN experiments (§5.2, Figure 1d) are built on Linux
``tc-netem`` with 10 ms end-to-end delay and a 0.01 % loss rate; this
module is the simulation equivalent and attaches to a :class:`Link`.

Beyond the paper's setup, two real-world impairments matter for an
MTU-translating gateway and are available for robustness experiments:

* **reordering** (netem's ``reorder``): a reordered packet breaks the
  contiguity the merge engines depend on, forcing a flush;
* **burst loss** via a Gilbert–Elliott two-state channel: WAN losses
  cluster, which stresses loss recovery far more than i.i.d. drops.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["Netem", "GilbertElliott"]


@dataclass
class GilbertElliott:
    """A two-state (Good/Bad) burst-loss channel.

    ``p_good_to_bad``/``p_bad_to_good`` are per-packet transition
    probabilities; ``loss_good``/``loss_bad`` are the per-state drop
    rates.  The stationary loss rate is
    ``loss_good * πG + loss_bad * πB``.
    """

    p_good_to_bad: float = 0.0005
    p_bad_to_good: float = 0.25
    loss_good: float = 0.0
    loss_bad: float = 0.5

    def __post_init__(self):
        for name in ("p_good_to_bad", "p_bad_to_good", "loss_good", "loss_bad"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        self._bad = False

    def drop(self, rng: random.Random) -> bool:
        """Advance the channel one packet; True to drop it."""
        if self._bad:
            if rng.random() < self.p_bad_to_good:
                self._bad = False
        else:
            if rng.random() < self.p_good_to_bad:
                self._bad = True
        rate = self.loss_bad if self._bad else self.loss_good
        return bool(rate) and rng.random() < rate

    @property
    def stationary_loss_rate(self) -> float:
        """Long-run average drop probability."""
        denom = self.p_good_to_bad + self.p_bad_to_good
        if denom == 0:
            return self.loss_good
        pi_bad = self.p_good_to_bad / denom
        return self.loss_good * (1 - pi_bad) + self.loss_bad * pi_bad


@dataclass
class Netem:
    """Impairment parameters applied per packet.

    * ``delay``: extra one-way latency in seconds.
    * ``jitter``: uniform ±jitter added to the delay.
    * ``loss``: independent drop probability in [0, 1].
    * ``reorder``: probability a packet is held back by
      ``reorder_extra`` seconds, letting successors overtake it.
    * ``burst_loss``: an optional Gilbert–Elliott channel applied in
      addition to the independent loss.
    """

    delay: float = 0.0
    jitter: float = 0.0
    loss: float = 0.0
    reorder: float = 0.0
    reorder_extra: float = 0.001
    burst_loss: Optional[GilbertElliott] = None
    #: When set, the instance owns a ``random.Random(seed)`` and uses it
    #: for every stochastic decision, regardless of the rng the caller
    #: passes to :meth:`impair`.  This is what makes chaos runs
    #: replayable from a single seed: the impairment sequence depends
    #: only on the seed and the (deterministic) packet arrival order.
    seed: Optional[int] = None

    def __post_init__(self):
        if not 0.0 <= self.loss <= 1.0:
            raise ValueError(f"loss must be a probability, got {self.loss}")
        if not 0.0 <= self.reorder <= 1.0:
            raise ValueError(f"reorder must be a probability, got {self.reorder}")
        if self.delay < 0 or self.jitter < 0 or self.reorder_extra < 0:
            raise ValueError("delays must be non-negative")
        self._rng = random.Random(self.seed) if self.seed is not None else None
        self._default_rng: Optional[random.Random] = None

    def impair(self, rng: Optional[random.Random] = None) -> "Tuple[bool, float]":
        """Return ``(drop, extra_delay)`` for one packet.

        Decisions come from this instance's own seeded rng when a
        ``seed`` was given, else from *rng*, else from a default
        ``random.Random(0)`` created on first use — the module-global
        ``random`` is never consulted, so same-seed runs replay
        bit-identically.
        """
        if self._rng is not None:
            rng = self._rng
        elif rng is None:
            if self._default_rng is None:
                self._default_rng = random.Random(0)
            rng = self._default_rng
        if self.loss and rng.random() < self.loss:
            return True, 0.0
        if self.burst_loss is not None and self.burst_loss.drop(rng):
            return True, 0.0
        extra = self.delay
        if self.jitter:
            extra += rng.uniform(-self.jitter, self.jitter)
        if self.reorder and rng.random() < self.reorder:
            extra += self.reorder_extra
        return False, max(0.0, extra)

    @classmethod
    def wan(cls, one_way_delay: float = 0.005, loss: float = 0.0001) -> "Netem":
        """The paper's WAN profile: 10 ms E2E (5 ms per direction), 0.01 % loss."""
        return cls(delay=one_way_delay, loss=loss)
