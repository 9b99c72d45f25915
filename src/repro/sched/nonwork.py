"""Non-work-conserving baselines from the related work (Section 11).

The paper surveys three rate-/frame-based disciplines that deliberately
idle the link — "packets are not allowed to leave early ... these
algorithms typically deliver higher average delays in return for lower
jitter":

* **Stop-and-Go queueing** (Golestani [8, 9]): time is cut into frames of
  length T; a packet arriving during frame k may only depart during frame
  k+1 or later.  Delay through a switch is bounded in [T, 2T] and jitter
  in [0, T] regardless of other traffic, at the cost of a full frame of
  average delay.
* **Hierarchical Round Robin** (Kalmanek, Kanakia & Keshav [16]),
  simplified to one level: each flow owns a fixed number of slots per
  frame and may not exceed them even when the link is idle — the
  non-work-conserving rate limit is what bounds downstream burstiness.
* **Jitter-EDD** (Verma, Zhang & Ferrari [22]): earliest-deadline-first
  with a *jitter-correcting hold*: each packet carries how far ahead of
  its deadline it left the previous switch, and the next switch holds it
  for exactly that long before making it eligible.  Per-hop jitter is thus
  cancelled hop by hop — the same header-field idea as FIFO+, applied to
  holding rather than reordering (the packet's ``jitter_offset`` field
  carries the hold time, non-negative under this discipline).

All three cooperate with :class:`~repro.net.port.OutputPort` through the
``attach_port`` / ``kick`` protocol: when ``dequeue`` finds packets held
but none eligible, the scheduler arms a timer that re-polls the port at
the earliest eligibility instant.
"""

from __future__ import annotations

import heapq
import math
from collections import OrderedDict, deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.net.packet import Packet
from repro.sched.base import GuaranteedServiceUnsupported, Scheduler
from repro.sim.engine import Simulator
from repro.sim.events import EventHandle

_ELIGIBILITY_EPS = 1e-12


class _HeldPacketScheduler(Scheduler):
    """Shared plumbing: an eligibility heap + port wake-up timers."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._port = None
        self._timer: Optional[EventHandle] = None
        # Packets served before their eligibility (frame credit exceeded,
        # hold cut short).  Structurally impossible through the normal
        # dequeue paths; the counter is the seam the eligibility-time
        # invariant in :mod:`repro.validate` reads, so a future scheduler
        # bug shows up as a failed invariant instead of silent jitter.
        self.early_departures = 0

    # -- OutputPort protocol -------------------------------------------
    def attach_port(self, port) -> None:
        self._port = port

    def _arm_wakeup(self, eligible_at: float) -> None:
        """(Re)schedule a port kick for ``eligible_at`` if it beats the
        currently armed timer."""
        now = self.sim.now
        if self._timer is not None and self._timer.active:
            if self._timer.time <= eligible_at + _ELIGIBILITY_EPS:
                return
            self._timer.cancel()
        delay = max(0.0, eligible_at - now)
        self._timer = self.sim.schedule_handle(delay, self._on_wakeup)

    def _on_wakeup(self) -> None:
        self._timer = None
        if self._port is not None:
            self._port.kick()


class StopAndGoScheduler(_HeldPacketScheduler):
    """Stop-and-Go queueing: departures happen one frame after arrivals.

    Args:
        sim: the simulator (drives eligibility timers).
        frame_seconds: the frame length T.  Per Golestani, a packet
            arriving in frame k is eligible from the start of frame k+1;
            within a frame, service is FIFO.
    """

    def __init__(self, sim: Simulator, frame_seconds: float):
        if frame_seconds <= 0:
            raise ValueError("frame length must be positive")
        super().__init__(sim)
        self.frame_seconds = frame_seconds
        self._heap: List[Tuple[float, int, Packet]] = []
        self._seq = 0
        self.held_polls = 0  # times dequeue found only ineligible packets

    def eligible_time(self, arrival: float) -> float:
        """Start of the frame after the one containing ``arrival``."""
        frame_index = math.floor(arrival / self.frame_seconds + _ELIGIBILITY_EPS)
        return (frame_index + 1) * self.frame_seconds

    def enqueue(self, packet: Packet, now: float) -> bool:
        eligible = self.eligible_time(now)
        heapq.heappush(self._heap, (eligible, self._seq, packet))
        self._seq += 1
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        if not self._heap:
            return None
        eligible, __, packet = self._heap[0]
        if eligible > now + _ELIGIBILITY_EPS:
            self.held_polls += 1
            self._arm_wakeup(eligible)
            return None
        heapq.heappop(self._heap)
        return packet

    def drain(self, now: float) -> List[Packet]:
        """Flush held packets in eligibility order, ignoring holds."""
        out = [packet for __, __, packet in sorted(self._heap)]
        self._heap.clear()
        return out

    def __len__(self) -> int:
        return len(self._heap)


class HrrScheduler(_HeldPacketScheduler):
    """One-level Hierarchical Round Robin.

    Each flow is allotted ``slots`` packet transmissions per frame; unused
    slots do NOT carry over (that non-accumulation is what bounds the
    downstream burst).  Unknown flows are refused unless
    ``default_slots`` is set.

    Args:
        frame_seconds: frame length.
        slots_per_flow: flow id -> packets it may send per frame.
        default_slots: allotment auto-assigned to unknown flows (None
            refuses them).
    """

    def __init__(
        self,
        sim: Simulator,
        frame_seconds: float,
        slots_per_flow: Optional[Dict[str, int]] = None,
        default_slots: Optional[int] = None,
    ):
        if frame_seconds <= 0:
            raise ValueError("frame length must be positive")
        super().__init__(sim)
        self.frame_seconds = frame_seconds
        self._slots: Dict[str, int] = dict(slots_per_flow or {})
        for flow, slots in self._slots.items():
            if slots < 1:
                raise ValueError(f"slots of {flow} must be >= 1")
        if default_slots is not None and default_slots < 1:
            raise ValueError("default slots must be >= 1")
        self.default_slots = default_slots
        self._queues: "OrderedDict[str, Deque[Packet]]" = OrderedDict()
        self._credits: Dict[str, int] = {}
        self._frame_served: Dict[str, int] = {}
        self._frame_index = -1
        self._size = 0
        self.refused = 0

    def register_flow(self, flow_id: str, slots: int) -> None:
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self._slots[flow_id] = slots

    def install_guaranteed(
        self, flow_id: str, rate_bps: float, now: Optional[float] = None
    ) -> None:
        """HRR reserves *slots per frame*, not bits/s — refuse the ambiguous
        install so a bit rate is never silently reinterpreted as a slot
        count.  Callers with a known packet size convert explicitly:
        ``register_flow(flow, hrr.slots_for_rate(rate_bps, packet_bits))``.
        """
        raise GuaranteedServiceUnsupported(
            "HrrScheduler allocates slots/frame, not bits/s; convert with "
            "slots_for_rate(rate_bps, packet_size_bits) and call "
            "register_flow explicitly"
        )

    def slots_for_rate(self, rate_bps: float, packet_size_bits: int) -> int:
        """Slots/frame needed to carry ``rate_bps`` of ``packet_size_bits``
        packets — the explicit bits/s -> slots conversion."""
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        if packet_size_bits <= 0:
            raise ValueError("packet size must be positive")
        return max(
            1, math.ceil(rate_bps * self.frame_seconds / packet_size_bits)
        )

    def _frame_of(self, now: float) -> int:
        return math.floor(now / self.frame_seconds + _ELIGIBILITY_EPS)

    def _refresh_frame(self, now: float) -> None:
        frame = self._frame_of(now)
        if frame != self._frame_index:
            self._frame_index = frame
            self._credits = dict(self._slots)
            self._frame_served = {}

    def enqueue(self, packet: Packet, now: float) -> bool:
        if packet.flow_id not in self._slots:
            if self.default_slots is None:
                self.refused += 1
                return False
            self._slots[packet.flow_id] = self.default_slots
        queue = self._queues.get(packet.flow_id)
        if queue is None:
            queue = deque()
            self._queues[packet.flow_id] = queue
        queue.append(packet)
        self._size += 1
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        if self._size == 0:
            return None
        self._refresh_frame(now)
        for flow_id, queue in self._queues.items():
            if queue and self._credits.get(flow_id, 0) > 0:
                self._credits[flow_id] -= 1
                served = self._frame_served.get(flow_id, 0) + 1
                self._frame_served[flow_id] = served
                if served > self._slots.get(flow_id, 0):
                    self.early_departures += 1
                self._size -= 1
                return queue.popleft()
        # Backlogged but out of credit: wait for the next frame.
        next_frame_at = (self._frame_index + 1) * self.frame_seconds
        self._arm_wakeup(next_frame_at)
        return None

    def drain(self, now: float) -> List[Packet]:
        """Flush every per-flow queue in round-robin registration order,
        ignoring frame credits."""
        out: List[Packet] = []
        for queue in self._queues.values():
            while queue:
                out.append(queue.popleft())
        self._size = 0
        return out

    def __len__(self) -> int:
        return self._size


class JitterEddScheduler(_HeldPacketScheduler):
    """Jitter-EDD: hold each packet for its carried "ahead" time, then EDF.

    At enqueue, a packet is held until ``now + packet.jitter_offset`` (the
    amount it left the previous switch ahead of its local deadline; zero at
    the first hop).  Once eligible it contends in deadline order, deadline
    = eligibility + the flow's per-hop delay target.  At dequeue the packet
    is stamped with its new ahead time, ``max(0, deadline - now)``, for the
    next hop — per-hop jitter is cancelled instead of accumulated.

    Args:
        delay_targets: flow id -> per-hop delay target (seconds).
        default_target: target for unknown flows (None refuses them).
    """

    def __init__(
        self,
        sim: Simulator,
        delay_targets: Optional[Dict[str, float]] = None,
        default_target: Optional[float] = None,
    ):
        super().__init__(sim)
        self._targets: Dict[str, float] = dict(delay_targets or {})
        for flow, target in self._targets.items():
            if target <= 0:
                raise ValueError(f"target of {flow} must be positive")
        if default_target is not None and default_target <= 0:
            raise ValueError("default target must be positive")
        self.default_target = default_target
        # Held until eligible: (eligible_time, seq, deadline, packet).
        self._held: List[Tuple[float, int, float, Packet]] = []
        # Eligible, in deadline order: (deadline, seq, eligible, packet).
        # The eligibility time rides along (seq is unique, so it never
        # participates in heap ordering) for the early-departure check.
        self._ready: List[Tuple[float, int, float, Packet]] = []
        self._seq = 0
        self.refused = 0

    def set_target(self, flow_id: str, target: float) -> None:
        if target <= 0:
            raise ValueError("target must be positive")
        self._targets[flow_id] = target

    def enqueue(self, packet: Packet, now: float) -> bool:
        target = self._targets.get(packet.flow_id, self.default_target)
        if target is None:
            self.refused += 1
            return False
        hold = max(0.0, packet.jitter_offset)
        eligible = now + hold
        deadline = eligible + target
        if hold <= _ELIGIBILITY_EPS:
            heapq.heappush(self._ready, (deadline, self._seq, eligible, packet))
        else:
            heapq.heappush(self._held, (eligible, self._seq, deadline, packet))
        self._seq += 1
        return True

    def _mature(self, now: float) -> None:
        while self._held and self._held[0][0] <= now + _ELIGIBILITY_EPS:
            eligible, seq, deadline, packet = heapq.heappop(self._held)
            heapq.heappush(self._ready, (deadline, seq, eligible, packet))

    def dequeue(self, now: float) -> Optional[Packet]:
        self._mature(now)
        if self._ready:
            deadline, __, eligible, packet = heapq.heappop(self._ready)
            if eligible > now + _ELIGIBILITY_EPS:
                self.early_departures += 1
            # Stamp the ahead-of-deadline time for the next hop's hold.
            packet.jitter_offset = max(0.0, deadline - now)
            return packet
        if self._held:
            self._arm_wakeup(self._held[0][0])
        return None

    def drain(self, now: float) -> List[Packet]:
        """Flush ready packets (deadline order) then held ones
        (eligibility order), ignoring holds."""
        out = [entry[3] for entry in sorted(self._ready)]
        out.extend(entry[3] for entry in sorted(self._held))
        self._ready.clear()
        self._held.clear()
        return out

    def __len__(self) -> int:
        return len(self._held) + len(self._ready)
