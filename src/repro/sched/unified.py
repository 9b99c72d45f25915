"""The unified CSZ scheduling algorithm (Section 7).

Structure, exactly as the paper lays it out:

* A top-level **WFQ frame** provides isolation.  Every guaranteed flow
  alpha is a WFQ flow with its own clock rate r_alpha.
* All predicted-service and datagram traffic together form **pseudo-flow
  0** with clock rate ``r_0 = capacity - sum(r_alpha)`` — the residual link
  bandwidth.
* Inside flow 0 sit **K strict priority classes** of predicted service
  (class 0 highest), each running **FIFO+**, and below them the **datagram
  class** (plain FIFO).

Flow-0 finish tags are assigned *on packet arrival, in arrival order*, so
the aggregate draws its WFQ share of the link no matter how the inner
priority/FIFO+ hierarchy reorders packets; when the WFQ frame selects flow
0, the oldest outstanding flow-0 tag is consumed and the inner hierarchy
picks the actual packet.  This decoupling of "how much service the
aggregate gets" (tags) from "which packet uses it" (priorities + FIFO+) is
the paper's isolation/sharing split made literal.

Guaranteed packets from flows that were never registered (no admission)
are refused — the port records them as drops — because guaranteed service
exists only behind an established commitment.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.net.packet import Packet, ServiceClass
from repro.sched.base import Scheduler
from repro.sched.fifo import FifoScheduler
from repro.sched.fifoplus import ClassDelayTracker, FifoPlusScheduler
from repro.sched.priority import PriorityScheduler
from repro.sched.wfq import VirtualTime

PSEUDO_FLOW_0 = "__predicted+datagram__"

_INF = float("inf")


@dataclasses.dataclass
class UnifiedConfig:
    """Configuration of one unified scheduler instance (one output port).

    Attributes:
        capacity_bps: output link speed.
        num_predicted_classes: K, the number of predicted-service priority
            levels (datagram traffic rides below all of them).
        fifoplus_gain: EWMA gain for the per-class average-delay tracker.
        stale_offset_threshold: optional Section 10 discard-when-late
            threshold passed to the FIFO+ levels.
        min_pseudo_flow_rate_bps: installing a guaranteed flow must leave at
            least this much residual rate for flow 0; the admission module
            enforces the paper's 10 % datagram quota *network-wide*, and
            this floor keeps a single port from being configured into a
            corner even when driven directly.
    """

    capacity_bps: float
    num_predicted_classes: int = 2
    fifoplus_gain: float = 0.01
    stale_offset_threshold: Optional[float] = None
    min_pseudo_flow_rate_bps: float = 1.0

    def __post_init__(self):
        if self.capacity_bps <= 0:
            raise ValueError("capacity must be positive")
        if self.num_predicted_classes < 1:
            raise ValueError("need at least one predicted class")
        if self.min_pseudo_flow_rate_bps <= 0:
            raise ValueError("pseudo-flow floor must be positive")


class UnifiedScheduler(Scheduler):
    """WFQ(guaranteed flows, flow-0[priority classes -> FIFO+ / FIFO])."""

    # Predicted classes ride FIFO+ levels inside flow 0, which preserve
    # within-flow order only statistically (see FifoPlusScheduler).
    preserves_flow_fifo = False

    def __init__(self, config: UnifiedConfig):
        self.config = config
        self.vt = VirtualTime(config.capacity_bps)
        self._guaranteed_rates: Dict[str, float] = {}
        # Per guaranteed flow: FIFO of (finish_tag, packet).
        self._gqueues: Dict[str, Deque[Tuple[float, Packet]]] = {}
        # Flow 0: FIFO of outstanding finish tags + the inner hierarchy.
        self._flow0_tags: Deque[float] = deque()
        self.class_delay_tracker = ClassDelayTracker(config.fifoplus_gain)
        self._made_levels = 0
        self._flow0 = PriorityScheduler(
            num_classes=config.num_predicted_classes + 1,
            sub_scheduler_factory=self._make_level,
            classifier=self._classify_flow0,
        )
        self.vt.register(PSEUDO_FLOW_0, self._pseudo_rate())
        self._size = 0
        self.refused_guaranteed = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _make_level(self) -> Scheduler:
        """Levels 0..K-1 are FIFO+ (predicted); level K is FIFO (datagram)."""
        idx = self._made_levels
        self._made_levels += 1
        if idx < self.config.num_predicted_classes:
            return FifoPlusScheduler(
                delay_tracker=self.class_delay_tracker,
                stale_offset_threshold=self.config.stale_offset_threshold,
            )
        return FifoScheduler()

    def _classify_flow0(self, packet: Packet) -> int:
        if packet.service_class is ServiceClass.DATAGRAM:
            return self.config.num_predicted_classes  # the bottom level
        return packet.priority_class

    def _pseudo_rate(self) -> float:
        residual = self.config.capacity_bps - sum(self._guaranteed_rates.values())
        return max(residual, self.config.min_pseudo_flow_rate_bps)

    # ------------------------------------------------------------------
    # Guaranteed-flow management (driven by signaling/admission)
    # ------------------------------------------------------------------
    def install_guaranteed_flow(
        self, flow_id: str, rate_bps: float, now: Optional[float] = None
    ) -> None:
        """Give ``flow_id`` a WFQ clock rate; shrinks pseudo-flow 0's rate
        from ``now`` on (see :meth:`VirtualTime.set_rate`).

        Raises:
            ValueError: if the rate is non-positive or would not leave the
                configured floor of residual bandwidth.
        """
        if rate_bps <= 0:
            raise ValueError("clock rate must be positive")
        if flow_id in self._guaranteed_rates:
            raise ValueError(f"guaranteed flow {flow_id} already installed")
        new_sum = sum(self._guaranteed_rates.values()) + rate_bps
        residual = self.config.capacity_bps - new_sum
        if residual < self.config.min_pseudo_flow_rate_bps:
            raise ValueError(
                f"installing {flow_id} at {rate_bps} bps leaves only "
                f"{residual} bps for predicted/datagram traffic"
            )
        self._guaranteed_rates[flow_id] = rate_bps
        self._gqueues[flow_id] = deque()
        self.vt.set_rate(flow_id, rate_bps, now)
        self.vt.set_rate(PSEUDO_FLOW_0, self._pseudo_rate(), now)

    supports_guaranteed = True

    def install_guaranteed(
        self, flow_id: str, rate_bps: float, now: Optional[float] = None
    ) -> None:
        """Capability interface alias for :meth:`install_guaranteed_flow`."""
        self.install_guaranteed_flow(flow_id, rate_bps, now)

    def remove_guaranteed_flow(
        self, flow_id: str, now: Optional[float] = None
    ) -> None:
        """Tear down a guaranteed flow (its queue must be empty); the
        freed rate returns to pseudo-flow 0 from ``now`` on."""
        if self._gqueues.get(flow_id):
            raise RuntimeError(f"flow {flow_id} still has queued packets")
        self._guaranteed_rates.pop(flow_id, None)
        self._gqueues.pop(flow_id, None)
        self.vt.set_rate(PSEUDO_FLOW_0, self._pseudo_rate(), now)

    @property
    def guaranteed_rate_sum(self) -> float:
        return sum(self._guaranteed_rates.values())

    def guaranteed_flows(self) -> Dict[str, float]:
        return dict(self._guaranteed_rates)

    # ------------------------------------------------------------------
    # Scheduler interface
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet, now: float) -> bool:
        if packet.service_class is ServiceClass.GUARANTEED:
            queue = self._gqueues.get(packet.flow_id)
            if queue is None:
                self.refused_guaranteed += 1
                return False
            queue.append(
                (self.vt.assign_tag(packet.flow_id, packet.size_bits, now), packet)
            )
            self._size += 1
            return True
        # Predicted or datagram -> pseudo-flow 0.
        if not self._flow0.enqueue(packet, now):
            return False
        self._flow0_tags.append(
            self.vt.assign_tag(PSEUDO_FLOW_0, packet.size_bits, now)
        )
        self._size += 1
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        if self._size == 0:
            return None
        self.vt.advance(now)
        # Pick the logical flow with the smallest head finish tag.
        best_flow: Optional[str] = None
        best_tag = _INF
        for flow_id, queue in self._gqueues.items():
            if queue and queue[0][0] < best_tag:
                best_tag = queue[0][0]
                best_flow = flow_id
        flow0_tags = self._flow0_tags
        if flow0_tags and flow0_tags[0] < best_tag:
            best_tag = flow0_tags[0]
            best_flow = PSEUDO_FLOW_0
        if best_flow is None:
            return None  # pragma: no cover - _size said otherwise
        self._size -= 1
        if best_flow == PSEUDO_FLOW_0:
            flow0_tags.popleft()
            packet = self._flow0.dequeue(now)
            assert packet is not None, "flow-0 tag/packet books diverged"
            return packet
        __, packet = self._gqueues[best_flow].popleft()
        return packet

    def __len__(self) -> int:
        return self._size

    def select_push_out(self, incoming: Packet) -> Optional[Packet]:
        """Real-time arrivals may push out queued *datagram* packets.

        The inner priority scheduler performs the eviction; its tag book is
        then reconciled by discarding the newest flow-0 tag (the evicted
        packet was a flow-0 member, so one outstanding tag must go).
        Guaranteed packets never get evicted: their isolation is the whole
        point of the WFQ frame.
        """
        if incoming.service_class is ServiceClass.DATAGRAM:
            return None
        victim = self._flow0.select_push_out(incoming)
        if victim is None:
            return None
        self._size -= 1
        if self._flow0_tags:
            self._flow0_tags.pop()
        return victim

    def queue_lengths(self) -> Dict[str, int]:
        """Diagnostic occupancy: per guaranteed flow and per flow-0 level."""
        out = {flow: len(q) for flow, q in self._gqueues.items()}
        for level, qlen in self._flow0.queue_lengths().items():
            name = (
                f"predicted[{level}]"
                if level < self.config.num_predicted_classes
                else "datagram"
            )
            out[name] = qlen
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<UnifiedScheduler qlen={self._size} "
            f"guaranteed={len(self._guaranteed_rates)} "
            f"K={self.config.num_predicted_classes}>"
        )
