"""Strict priority scheduling over per-class sub-schedulers (Section 7).

Priority is the paper's second sharing mechanism: a higher class *shifts its
jitter* onto lower classes, which see the higher classes' bursts as baseline
load.  Toward lower classes it acts as an isolation mechanism (they can
never disturb the classes above).

Each priority level delegates to a sub-scheduler (FIFO by default, FIFO+ in
the unified algorithm), so this class is also the composition glue of the
unified CSZ scheduler.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.net.packet import Packet
from repro.sched.base import Scheduler
from repro.sched.fifo import FifoScheduler

SubSchedulerFactory = Callable[[], Scheduler]


class PriorityScheduler(Scheduler):
    """Strict priority among numbered classes; 0 is the highest priority.

    Args:
        num_classes: number of priority levels.
        sub_scheduler_factory: builds the intra-class scheduler for each
            level (default FIFO).
        classifier: maps a packet to its class index; the default reads
            ``packet.priority_class`` (clamped into range, so datagram
            traffic tossed at a high index lands in the lowest class).
    """

    def __init__(
        self,
        num_classes: int,
        sub_scheduler_factory: Optional[SubSchedulerFactory] = None,
        classifier: Optional[Callable[[Packet], int]] = None,
    ):
        if num_classes <= 0:
            raise ValueError(f"need at least one class, got {num_classes}")
        factory = sub_scheduler_factory or FifoScheduler
        self.levels: List[Scheduler] = [factory() for _ in range(num_classes)]
        self._classifier = classifier or self._default_classifier
        self._size = 0
        # Strict priority adds no clock dependence of its own, so bursts
        # may be batch-served iff every level can be (instance attribute:
        # it depends on the factory the caller chose).
        self.supports_batch_drain = all(
            level.supports_batch_drain for level in self.levels
        )

    @property
    def num_classes(self) -> int:
        return len(self.levels)

    def _default_classifier(self, packet: Packet) -> int:
        return packet.priority_class

    def classify(self, packet: Packet) -> int:
        """Class index for ``packet``, clamped to the valid range."""
        idx = self._classifier(packet)
        return min(max(idx, 0), len(self.levels) - 1)

    def enqueue(self, packet: Packet, now: float) -> bool:
        # classify() written out: this runs once per packet per hop.
        levels = self.levels
        idx = self._classifier(packet)
        if idx < 0:
            idx = 0
        elif idx >= len(levels):
            idx = len(levels) - 1
        if levels[idx].enqueue(packet, now):
            self._size += 1
            return True
        return False

    def dequeue(self, now: float) -> Optional[Packet]:
        for level in self.levels:
            if len(level):
                packet = level.dequeue(now)
                if packet is not None:
                    self._size -= 1
                    return packet
        return None

    def __len__(self) -> int:
        return self._size

    def peek_next(self) -> Optional[Packet]:
        for level in self.levels:
            if len(level):
                return level.peek_next()
        return None

    def queue_lengths(self) -> Dict[int, int]:
        """Per-class occupancy (diagnostics)."""
        return {i: len(level) for i, level in enumerate(self.levels)}

    def select_push_out(self, incoming: Packet) -> Optional[Packet]:
        """Evict from the *lowest-priority* non-empty class if the incoming
        packet is strictly higher priority — datagram traffic should not be
        able to push out real-time packets, but a full buffer of datagram
        packets should not block predicted-service traffic either."""
        incoming_class = self.classify(incoming)
        for idx in range(len(self.levels) - 1, incoming_class, -1):
            level = self.levels[idx]
            victim = level.select_push_out(incoming)
            if victim is not None:
                self._size -= 1
                return victim
            if len(level):
                # Generic eviction: drain the level's worst packet.  Sub-
                # schedulers without native push-out give up their head;
                # for FIFO-like levels evicting the newest is preferable,
                # so FifoScheduler-based levels pop from the tail.
                tail = getattr(level, "evict_tail", None)
                if tail is not None:
                    packet = tail()
                else:
                    packet = level.dequeue(0.0)
                if packet is not None:
                    self._size -= 1
                    return packet
        return None
