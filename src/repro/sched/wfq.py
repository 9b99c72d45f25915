"""Weighted Fair Queueing (packetized GPS) — Section 4.

WFQ is the paper's *isolation* mechanism.  Each flow alpha holds a clock
rate r_alpha (its guaranteed share of the link); Parekh and Gallager proved
that if a flow conforms to an (r, b) token bucket and receives clock rate r
at every switch (with sum of clock rates <= link speed everywhere), its
total queueing delay is bounded by b/r regardless of how the other flows
behave.

The implementation here is the standard virtual-time formulation, which is
equivalent to the paper's "expected delay until departure" E_i(t) rule:

* Virtual time V(t) advances at rate C / (sum of clock rates of GPS-active
  flows); a flow is GPS-active while V has not yet passed the finish tag of
  its last-arrived packet.
* Packet i of flow alpha gets finish tag
  ``F = max(V(arrival), F_prev_of_flow) + size / r_alpha``.
* The link always transmits the queued packet with the smallest tag.

PGPS order is defined once, here: :class:`PgpsScheduler` owns V(t), the
finish-tag queue, the tie-break and the reservation rule, and both
:class:`WfqScheduler` and the unified scheduler (:mod:`repro.sched.unified`,
which embeds all predicted and datagram traffic as one pseudo-flow inside a
WFQ frame) inherit it; they only say what a flow is and how equal tags rank.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict, deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.net.packet import Packet
from repro.sched.base import Scheduler


class VirtualTime:
    """GPS virtual-time tracker for a link of a given capacity.

    Maintains V(t), the set of GPS-active flows, and assigns packet finish
    tags.  All methods take the current real time ``now`` and advance V
    internally; calls must be non-decreasing in ``now``.
    """

    def __init__(self, capacity_bps: float):
        if capacity_bps <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bps}")
        self.capacity_bps = float(capacity_bps)
        self._rates: Dict[str, float] = {}
        self._last_tag: Dict[str, float] = {}
        self._vtime = 0.0
        self._last_real = 0.0
        # GPS-active bookkeeping: flow -> final tag of its last arrival,
        # the sum of active rates, and a lazy min-heap of (tag, flow).
        self._active: Dict[str, float] = {}
        self._active_sum = 0.0
        self._tag_heap: List[Tuple[float, str]] = []

    # ------------------------------------------------------------------
    @property
    def vtime(self) -> float:
        return self._vtime

    def register(self, flow_id: str, rate_bps: float) -> None:
        """Assign clock rate ``rate_bps`` to ``flow_id``.

        Re-registering with a new rate is allowed while the flow is GPS-idle
        (used when admission control renegotiates shares).
        """
        if flow_id in self._active:
            raise RuntimeError(
                f"cannot change rate of {flow_id} while it is backlogged"
            )
        self.set_rate(flow_id, rate_bps)

    def set_rate(
        self, flow_id: str, rate_bps: float, now: Optional[float] = None
    ) -> None:
        """Assign clock rate ``rate_bps`` to ``flow_id`` even while it is
        GPS-active (the unified scheduler resizes pseudo-flow 0 under
        backlog whenever a guaranteed flow comes or goes).

        V(t) is first advanced to ``now`` at the old slope — when ``now``
        is omitted the new rate counts from the last instant V was
        advanced to — and the active-rate sum is rebuilt, so the slope is
        ``C / sum(rates of active flows)`` on both sides of the change.
        Tags already assigned stand; later arrivals are stamped at the new
        rate.  For an idle flow this is :meth:`register`.
        """
        if rate_bps <= 0:
            raise ValueError(f"clock rate must be positive, got {rate_bps}")
        if now is not None and flow_id in self._active:
            self.advance(now)
        self._rates[flow_id] = float(rate_bps)
        if flow_id in self._active:
            rates = self._rates
            self._active_sum = sum(rates[flow] for flow in self._active)

    def is_registered(self, flow_id: str) -> bool:
        return flow_id in self._rates

    def rate_of(self, flow_id: str) -> float:
        return self._rates[flow_id]

    def registered_rate_sum(self) -> float:
        return sum(self._rates.values())

    # ------------------------------------------------------------------
    def advance(self, now: float) -> None:
        """Advance V(t) from the last update time to ``now``.

        Between flow-departure breakpoints V grows linearly with slope
        C / (sum of active rates); each time V reaches the smallest final
        tag, that flow leaves the GPS-active set and the slope steepens.
        """
        t = self._last_real
        if now <= t:
            return
        active = self._active
        while t < now and active:
            flow, f_min = self._peek_min_tag()
            if flow is None:
                break
            slope = self.capacity_bps / self._active_sum
            t_reach = t + (f_min - self._vtime) / slope
            if t_reach <= now:
                self._vtime = f_min
                t = t_reach
                heapq.heappop(self._tag_heap)
                self._deactivate(flow)
            else:
                self._vtime += (now - t) * slope
                t = now
        self._last_real = now
        if not active:
            self._active_sum = 0.0  # cancel any float drift

    def _peek_min_tag(self) -> Tuple[Optional[str], float]:
        """Smallest current final tag among active flows (lazy deletion)."""
        heap = self._tag_heap
        while heap:
            tag, flow = heap[0]
            current = self._active.get(flow)
            if current is None or current > tag:
                heapq.heappop(heap)  # stale entry
                continue
            return flow, tag
        return None, 0.0

    def _deactivate(self, flow: str) -> None:
        self._active_sum -= self._rates[flow]
        del self._active[flow]

    # ------------------------------------------------------------------
    def assign_tag(self, flow_id: str, size_bits: int, now: float) -> float:
        """Advance V to ``now`` and return the finish tag for an arriving
        packet of ``size_bits`` on ``flow_id``."""
        self.advance(now)
        rate = self._rates[flow_id]
        vtime = self._vtime
        prev = self._last_tag.get(flow_id, 0.0)
        tag = (vtime if vtime > prev else prev) + size_bits / rate
        self._last_tag[flow_id] = tag
        active = self._active
        if flow_id not in active:
            self._active_sum += rate
        active[flow_id] = tag
        heapq.heappush(self._tag_heap, (tag, flow_id))
        return tag

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<VirtualTime V={self._vtime:.6f} active={len(self._active)} "
            f"flows={len(self._rates)}>"
        )


class PgpsScheduler(Scheduler):
    """The PGPS core: one finish-tag order for every WFQ-framed discipline.

    Each flow keeps a FIFO of ``(tag, key, item)`` and each backlogged
    flow's head sits on one min-heap as ``(tag, key, flow)``; a flow's tags
    strictly increase, so the smallest head is the smallest entry overall
    and the key decides equal tags.  Subclasses pick the key and queue
    through :meth:`_push`.  An entry with no item is an aggregate's turn:
    ``_aggregate`` (a scheduler over its packets) picks the packet.  Rates
    are installed by :meth:`VirtualTime.set_rate` at ``now``, exact under
    backlog; releasing one leaves the FIFOs alone, so queued packets leave
    on the tags they hold.
    """

    supports_guaranteed = True
    _aggregate: Optional[Scheduler] = None

    def __init__(self, capacity_bps: float):
        self.vt = VirtualTime(capacity_bps)
        self._queues: Dict[str, Deque[tuple]] = defaultdict(deque)  # (tag, key, item)
        self._heads: List[Tuple[float, float, str]] = []
        self._count = 0

    def install_guaranteed(
        self, flow_id: str, rate_bps: float, now: Optional[float] = None
    ) -> None:
        """Capability interface: a WFQ clock rate *is* a guaranteed rate."""
        self.vt.set_rate(flow_id, rate_bps, now)

    def _push(
        self, flow_id: str, size_bits: int, key: float,
        item: Optional[Packet], now: float,
    ) -> None:
        """Stamp an arrival of ``size_bits`` on ``flow_id`` and queue it."""
        tag = self.vt.assign_tag(flow_id, size_bits, now)
        queue = self._queues[flow_id]
        if not queue:
            heapq.heappush(self._heads, (tag, key, flow_id))
        queue.append((tag, key, item))
        self._count += 1

    def _pop_newest(self, flow_id: str) -> None:
        """Discard ``flow_id``'s newest entry (push-out); V(t) keeps its tag."""
        queue = self._queues[flow_id]
        tag, key, __ = queue.pop()
        if not queue:
            self._heads.remove((tag, key, flow_id))
            heapq.heapify(self._heads)
        self._count -= 1

    def peek_next(self) -> Optional[Packet]:
        """The smallest-tag packet (None on an aggregate's turn), unpopped."""
        heads = self._heads
        return self._queues[heads[0][2]][0][2] if heads else None

    def dequeue(self, now: float) -> Optional[Packet]:
        heads = self._heads
        if not heads:
            return None
        self.vt.advance(now)
        flow_id = heads[0][2]
        queue = self._queues[flow_id]
        item = queue.popleft()[2]
        if queue:
            tag, key, __ = queue[0]
            heapq.heapreplace(heads, (tag, key, flow_id))
        else:
            heapq.heappop(heads)
        self._count -= 1
        return item if item is not None else self._aggregate.dequeue(now)

    def __len__(self) -> int:
        return self._count


class WfqScheduler(PgpsScheduler):
    """Packetized weighted fair queueing over per-flow clock rates.

    Equal finish tags are served in arrival order (the core's key is the
    packet's arrival sequence number).

    Args:
        capacity_bps: the output link speed.
        rates_bps: optional initial clock rate per flow id.
        auto_register_rate: if set, a packet from an unknown flow implicitly
            registers that flow at this rate (the Table 1/2 experiments give
            every flow an equal share this way).  If unset, packets from
            unknown flows are refused (counted as drops by the port) —
            guaranteed service only exists for established flows.
    """

    def __init__(
        self,
        capacity_bps: float,
        rates_bps: Optional[Dict[str, float]] = None,
        auto_register_rate: Optional[float] = None,
    ):
        super().__init__(capacity_bps)
        self.auto_register_rate = auto_register_rate
        if rates_bps:
            for flow, rate in rates_bps.items():
                self.vt.register(flow, rate)
        self._seq = itertools.count()
        self.refused = 0

    def register_flow(self, flow_id: str, rate_bps: float) -> None:
        self.vt.register(flow_id, rate_bps)

    def enqueue(self, packet: Packet, now: float) -> bool:
        flow_id = packet.flow_id
        if flow_id not in self.vt._rates:
            if self.auto_register_rate is None:
                self.refused += 1
                return False
            self.vt.register(flow_id, self.auto_register_rate)
        self._push(flow_id, packet.size_bits, next(self._seq), packet, now)
        return True

    # Batched link service is safe although dequeue() takes the clock: the
    # order is fixed by tags assigned at *enqueue*, ``vt.advance(now)`` never
    # reorders them, and the burst loop dequeues at exactly the per-packet
    # completion instants, so V(t) sees the same ``now`` sequence and floats.
    supports_batch_drain = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<WfqScheduler qlen={len(self)} {self.vt!r}>"
