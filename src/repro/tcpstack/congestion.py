"""TCP congestion control: Reno with Appropriate Byte Counting, and CUBIC.

The paper's end-to-end argument (§2.1) rests on window arithmetic being
MSS-denominated: slow start grows the window per *byte acknowledged*
(RFC 3465) and congestion avoidance adds one MSS per RTT, so a 9000 B
MSS ramps ~6x faster than 1500 B.  These classes implement exactly that
arithmetic; the connection machinery calls them on ACK/loss events.
"""

from __future__ import annotations

__all__ = ["CongestionControl", "Reno", "Cubic"]


class CongestionControl:
    """Interface: byte-denominated congestion window management."""

    def __init__(self, mss: int):
        if mss <= 0:
            raise ValueError(f"bad MSS {mss}")
        self.mss = mss
        #: RFC 6928 initial window (10 segments).
        self.cwnd = float(10 * mss)
        self.ssthresh = float("inf")

    @property
    def in_slow_start(self) -> bool:
        return self.cwnd < self.ssthresh

    def on_ack(self, acked_bytes: int, now: float = 0.0) -> None:
        """New data was cumulatively acknowledged."""
        raise NotImplementedError

    def on_loss(self, now: float = 0.0) -> None:
        """A loss was detected via fast retransmit (multiplicative decrease)."""
        raise NotImplementedError

    def on_timeout(self, now: float = 0.0) -> None:
        """An RTO fired: collapse to one segment (RFC 5681)."""
        self.ssthresh = max(self.cwnd / 2.0, 2.0 * self.mss)
        self.cwnd = float(self.mss)


class Reno(CongestionControl):
    """NewReno-style AIMD with Appropriate Byte Counting (RFC 3465)."""

    #: ABC aggressiveness limit: at most L*SMSS growth per ACK.
    ABC_LIMIT = 2

    def on_ack(self, acked_bytes: int, now: float = 0.0) -> None:
        if acked_bytes <= 0:
            return
        if self.in_slow_start:
            self.cwnd += min(acked_bytes, self.ABC_LIMIT * self.mss)
            if self.cwnd > self.ssthresh:
                self.cwnd = self.ssthresh
        else:
            # Additive increase: one MSS per window's worth of ACKs.
            self.cwnd += self.mss * min(acked_bytes, self.mss) / self.cwnd

    def on_loss(self, now: float = 0.0) -> None:
        self.ssthresh = max(self.cwnd / 2.0, 2.0 * self.mss)
        self.cwnd = self.ssthresh


class Cubic(CongestionControl):
    """A compact CUBIC (RFC 9438) model.

    The window follows ``W(t) = C (t - K)^3 + W_max`` after a loss,
    with the standard TCP-friendly floor omitted (our experiments run
    either pure-CUBIC or pure-Reno populations).
    """

    C = 0.4  # scaling constant, in segments/s^3
    BETA = 0.7

    def __init__(self, mss: int):
        super().__init__(mss)
        self._w_max = self.cwnd
        self._epoch_start: "float | None" = None
        self._k = 0.0

    def on_ack(self, acked_bytes: int, now: float = 0.0) -> None:
        if acked_bytes <= 0:
            return
        if self.in_slow_start:
            self.cwnd += min(acked_bytes, 2 * self.mss)
            if self.cwnd > self.ssthresh:
                self.cwnd = self.ssthresh
            return
        if self._epoch_start is None:
            self._epoch_start = now
            self._w_max = self._w_max or self.cwnd  # 0 after a timeout: K = 0
            w_max_seg = self._w_max / self.mss
            cwnd_seg = self.cwnd / self.mss
            self._k = ((w_max_seg - cwnd_seg) / self.C) ** (1.0 / 3.0) if w_max_seg > cwnd_seg else 0.0
        t = now - self._epoch_start
        target_seg = self.C * (t - self._k) ** 3 + self._w_max / self.mss
        target = max(target_seg * self.mss, self.mss)
        if target > self.cwnd:
            # Approach the cubic target gradually (per-ACK fraction).
            self.cwnd += (target - self.cwnd) * min(acked_bytes, self.mss) / self.cwnd
        else:
            self.cwnd += 0.01 * self.mss * min(acked_bytes, self.mss) / self.cwnd

    def on_loss(self, now: float = 0.0) -> None:
        self._w_max = self.cwnd
        self.ssthresh = max(self.cwnd * self.BETA, 2.0 * self.mss)
        self.cwnd = self.ssthresh
        self._epoch_start = None

    def on_timeout(self, now: float = 0.0) -> None:
        # RFC 9438 §4.8: ssthresh by β_cubic, as on a loss, and cwnd to
        # one segment; the next epoch starts at K = 0, W_max = its cwnd.
        self.ssthresh = max(self.cwnd * self.BETA, 2.0 * self.mss)
        self.cwnd = float(self.mss)
        self._w_max = 0.0
        self._epoch_start = None
