"""Token bucket traffic filters (Section 4).

A source conforms to an (r, b) token bucket if, with the bucket starting
full (n_0 = b) and refilling continuously at rate r up to depth b, every
packet of size p finds at least p tokens:

    n_i = MIN[b, n_{i-1} + (t_i - t_{i-1}) * r - p_i]  must stay >= 0.

The paper uses the token bucket in three roles, all implemented here:

* **Source-side shaping** (Appendix): each on/off source is subjected to an
  (A, 50-packet) bucket and nonconforming packets are *dropped at the
  source* (about 2 % in the paper's workload).
* **Edge enforcement** (Section 8): the first switch checks predicted-
  service flows against their declared filter, dropping or *tagging*
  nonconforming packets; later switches never re-check.
* **Characterization** (Section 4): the non-increasing function b(r), the
  minimal depth at which a given packet sequence conforms, feeds the
  Parekh-Gallager bound b(r)/r.  :func:`minimal_bucket_depth` computes it.

Units: tokens are *bits* (packet sizes are bits); rates are bits/s.  The
experiment layer converts the paper's packets/s parameters explicitly.
"""

from __future__ import annotations

import enum
from typing import Iterable, List, Optional, Tuple

from repro.net.packet import Packet


class NonconformingPolicy(enum.Enum):
    """What an enforcement point does with a nonconforming packet (§8)."""

    DROP = "drop"
    TAG = "tag"


class TokenBucket:
    """The (r, b) token bucket state machine.

    Args:
        rate_bps: token fill rate r in bits/s.
        depth_bits: bucket depth b in bits.
        full_at_start: the paper's definition starts the bucket full
            (n_0 = b); tests may start it empty.
    """

    def __init__(self, rate_bps: float, depth_bits: float, full_at_start: bool = True):
        if rate_bps <= 0:
            raise ValueError(f"token rate must be positive, got {rate_bps}")
        if depth_bits <= 0:
            raise ValueError(f"bucket depth must be positive, got {depth_bits}")
        self.rate_bps = float(rate_bps)
        self.depth_bits = float(depth_bits)
        self._tokens = self.depth_bits if full_at_start else 0.0
        self._last_time = 0.0

    def tokens_at(self, now: float) -> float:
        """Token level at ``now`` without consuming anything."""
        if now < self._last_time:
            raise ValueError(f"time went backwards: {now} < {self._last_time}")
        return min(
            self.depth_bits, self._tokens + (now - self._last_time) * self.rate_bps
        )

    def try_consume(self, size_bits: float, now: float) -> bool:
        """Refill to ``now`` and consume ``size_bits`` if available.

        Returns True (conforming, tokens consumed) or False (nonconforming,
        nothing consumed).
        """
        level = self.tokens_at(now)
        self._last_time = now
        if level >= size_bits:
            self._tokens = level - size_bits
            return True
        self._tokens = level
        return False


class TokenBucketFilter:
    """An enforcement point wrapping a :class:`TokenBucket` (Sections 4, 8).

    Call :meth:`check` on each packet; the filter either passes it, tags it
    (sets ``packet.tagged``), or reports it for dropping, per the policy.
    """

    def __init__(
        self,
        rate_bps: float,
        depth_bits: float,
        policy: NonconformingPolicy = NonconformingPolicy.DROP,
    ):
        self.bucket = TokenBucket(rate_bps, depth_bits)
        self.policy = policy
        self.conforming = 0
        self.nonconforming = 0

    def check(self, packet: Packet, now: float) -> bool:
        """Returns True if the packet may proceed, False if it must drop.

        Under TAG policy nonconforming packets proceed but are marked.

        Runs once per packet at every policed edge, so the bucket update
        is :meth:`TokenBucket.try_consume` written out in this frame:
        the same refill expression, the same backwards-clock check.
        """
        bucket = self.bucket
        last = bucket._last_time
        if now < last:
            raise ValueError(f"time went backwards: {now} < {last}")
        level = bucket._tokens + (now - last) * bucket.rate_bps
        if level > bucket.depth_bits:
            level = bucket.depth_bits
        bucket._last_time = now
        size_bits = packet.size_bits
        if level >= size_bits:
            bucket._tokens = level - size_bits
            self.conforming += 1
            return True
        bucket._tokens = level
        self.nonconforming += 1
        if self.policy is NonconformingPolicy.TAG:
            packet.tagged = True
            return True
        return False

    @property
    def drop_fraction(self) -> float:
        total = self.conforming + self.nonconforming
        return self.nonconforming / total if total else 0.0


def minimal_bucket_depth(
    arrivals: Iterable[Tuple[float, float]], rate_bps: float
) -> float:
    """b(r): the minimal bucket depth at which ``arrivals`` conform.

    Args:
        arrivals: (time, size_bits) pairs in non-decreasing time order.
        rate_bps: the candidate token rate r.

    Returns:
        The smallest b such that the sequence conforms to (r, b), computed
        by simulating an infinitely deep bucket that starts empty of
        *deficit*: b(r) = max over i of (bits sent in any window ending at
        t_i) - r * (window length).  Equivalently the peak of the leaky-
        bucket backlog when drained at r, plus the size of the packet that
        created the peak.
    """
    if rate_bps <= 0:
        raise ValueError("rate must be positive")
    # Deficit-based formulation: run the recurrence with unbounded depth
    # starting from zero credit; the required depth is the worst cumulative
    # overdraft: b = max_i ( sum_{j<=i} p_j - r*(t_i - t_0) ) over suffixes.
    # Standard O(n) computation: track credit = tokens relative to an
    # initially full bucket of unknown depth.
    depth_needed = 0.0
    credit = 0.0  # tokens consumed beyond refill so far (>= 0 means need)
    last_t: Optional[float] = None
    for t, size in arrivals:
        if size < 0:
            raise ValueError("packet size cannot be negative")
        if last_t is not None:
            if t < last_t:
                raise ValueError("arrivals must be time-ordered")
            credit = max(0.0, credit - (t - last_t) * rate_bps)
        last_t = t
        credit += size
        depth_needed = max(depth_needed, credit)
    return depth_needed


def conforms(
    arrivals: List[Tuple[float, float]], rate_bps: float, depth_bits: float
) -> bool:
    """True if the arrival sequence conforms to an (r, b) bucket started full."""
    return minimal_bucket_depth(arrivals, rate_bps) <= depth_bits + 1e-9
