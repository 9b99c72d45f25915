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

The :class:`VirtualTime` core is shared with the unified scheduler
(:mod:`repro.sched.unified`), which embeds all predicted and datagram
traffic as one pseudo-flow inside a WFQ frame.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

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


class WfqScheduler(Scheduler):
    """Packetized weighted fair queueing over per-flow clock rates.

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
        self.vt = VirtualTime(capacity_bps)
        self.auto_register_rate = auto_register_rate
        if rates_bps:
            for flow, rate in rates_bps.items():
                self.vt.register(flow, rate)
        self._heap: List[Tuple[float, int, Packet]] = []
        self._seq = 0
        self.refused = 0

    def register_flow(self, flow_id: str, rate_bps: float) -> None:
        self.vt.register(flow_id, rate_bps)

    supports_guaranteed = True

    def install_guaranteed(
        self, flow_id: str, rate_bps: float, now: Optional[float] = None
    ) -> None:
        """Capability interface: a WFQ clock rate *is* a guaranteed rate."""
        self.vt.register(flow_id, rate_bps)

    def enqueue(self, packet: Packet, now: float) -> bool:
        vt = self.vt
        flow_id = packet.flow_id
        if flow_id not in vt._rates:
            if self.auto_register_rate is None:
                self.refused += 1
                return False
            vt.register(flow_id, self.auto_register_rate)
        tag = vt.assign_tag(flow_id, packet.size_bits, now)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (tag, seq, packet))
        return True

    # Batched link service is safe here even though dequeue() takes the
    # clock: departure order is fixed entirely by the finish tags assigned
    # at *enqueue* time, and dequeue's ``vt.advance(now)`` is pure V(t)
    # bookkeeping that never reorders the tag heap.  The port's burst loop
    # dequeues at exactly the per-packet completion instants (each serve
    # advances ``sim.now`` to the departure time before the next dequeue),
    # so V(t) sees the identical sequence of ``now`` values — and the
    # identical float arithmetic — as the per-packet path.
    supports_batch_drain = True

    def peek_next(self) -> Optional[Packet]:
        """The smallest-tag packet, without popping or advancing V(t)."""
        return self._heap[0][2] if self._heap else None

    def dequeue(self, now: float) -> Optional[Packet]:
        if not self._heap:
            return None
        self.vt.advance(now)
        __, __, packet = heapq.heappop(self._heap)
        return packet

    def __len__(self) -> int:
        return len(self._heap)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<WfqScheduler qlen={len(self._heap)} {self.vt!r}>"
