"""Output ports: finite buffer + pluggable scheduler + link.

This is the seam the whole reproduction turns on.  An :class:`OutputPort`
owns a :class:`~repro.sched.base.Scheduler`; comparing WFQ vs FIFO vs FIFO+
vs the unified algorithm (Tables 1-3) is a one-line scheduler swap with all
queueing/link mechanics identical.

Buffering follows the Appendix: each switch port buffers up to 200 packets;
arrivals to a full buffer are dropped (tail drop by default; schedulers may
nominate a push-out victim instead, which the Section 10 drop-preference
extension uses).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.net.link import Link
from repro.net.packet import Packet
from repro.sched.base import Scheduler
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.traffic.token_bucket import TokenBucketFilter

# Listener signatures: (packet, now) for enqueue/drop, and
# (packet, now, wait_seconds) for departures.
EnqueueListener = Callable[[Packet, float], None]
DropListener = Callable[[Packet, float], None]
DepartListener = Callable[[Packet, float, float], None]


class OutputPort:
    """An output-queued port: scheduler + finite buffer + one link.

    Args:
        batching: serve bursts arithmetically inside one completion event
            when the scheduler allows it (``supports_batch_drain``).
            ``False`` forces the per-packet path; results are identical
            either way (the bit-identity harness runs both).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        scheduler: Scheduler,
        link: Link,
        buffer_packets: int = 200,
        batching: bool = True,
    ):
        if buffer_packets <= 0:
            raise ValueError(f"buffer must hold at least 1 packet, got {buffer_packets}")
        self.sim = sim
        self.name = name
        self.scheduler = scheduler
        self.link = link
        self.buffer_packets = buffer_packets
        link.on_idle = self._send_next
        # Batched link service: when the scheduler's dequeue order is
        # clock-independent (``supports_batch_drain``), completion events
        # hand control to :meth:`_drain_burst`, which serves whole bursts
        # arithmetically inside the one event.  Restores and enqueues
        # still go through the per-packet path.
        self.batching_enabled = batching and scheduler.supports_batch_drain
        if self.batching_enabled:
            link.on_complete_idle = self._drain_burst
        self.batched_departures = 0
        # Non-work-conserving schedulers (Stop-and-Go, HRR, Jitter-EDD)
        # hold packets until they become eligible; they need a handle on
        # the port to re-poll it when a held packet matures.
        attach = getattr(scheduler, "attach_port", None)
        if attach is not None:
            attach(self)

        self.packets_in = 0
        self.packets_out = 0
        self.packets_dropped = 0
        self.queueing_delay_total = 0.0  # summed wait of departed packets
        self.on_enqueue: List[EnqueueListener] = []
        self.on_drop: List[DropListener] = []
        self.on_depart: List[DepartListener] = []
        # Edge enforcement (Section 8), checked before the scheduler sees
        # the packet.  The signaling layer installs a predicted flow's
        # token-bucket policer under its flow id, at the *first* switch of
        # the path only: one lookup per packet however many flows the port
        # polices.  ``filters`` are port-wide predicates (tests, fault
        # injection); any returning False drops the packet.
        self.flow_policers: Dict[str, TokenBucketFilter] = {}
        self.filters: List[Callable[[Packet, float], bool]] = []

    # ------------------------------------------------------------------
    @property
    def queue_length(self) -> int:
        """Packets waiting in the scheduler (excludes the one on the wire)."""
        return len(self.scheduler)

    @property
    def mean_queueing_delay(self) -> float:
        """Mean per-hop wait of packets that departed this port (seconds)."""
        return self.queueing_delay_total / self.packets_out if self.packets_out else 0.0

    def enqueue(self, packet: Packet) -> bool:
        """Offer a packet to the port.

        Returns:
            True if the packet was queued (or immediately transmitted),
            False if it was dropped.
        """
        now = self.sim.now
        self.packets_in += 1
        policers = self.flow_policers
        if policers:
            policer = policers.get(packet.flow_id)
            if policer is not None and not policer.check(packet, now):
                self._drop(packet, now)
                return False
        if self.filters:
            for admission_filter in self.filters:
                if not admission_filter(packet, now):
                    self._drop(packet, now)
                    return False
        scheduler = self.scheduler
        if len(scheduler) >= self.buffer_packets:
            victim = scheduler.select_push_out(packet)
            if victim is None:
                self._drop(packet, now)
                return False
            # Push-out: the scheduler evicted `victim` to admit `packet`.
            self._drop(victim, now)
        packet.enqueued_at = now
        if not scheduler.enqueue(packet, now):
            self._drop(packet, now)
            return False
        if self.on_enqueue:
            for listener in self.on_enqueue:
                listener(packet, now)
        if not self.link.busy:
            self._send_next()
        return True

    def _drop(self, packet: Packet, now: float) -> None:
        self.packets_dropped += 1
        if self.on_drop:
            for listener in self.on_drop:
                listener(packet, now)

    def _send_next(self) -> None:
        now = self.sim.now
        packet = self.scheduler.dequeue(now)
        if packet is None:
            return
        wait = now - packet.enqueued_at
        packet.queueing_delay += wait
        packet.hops += 1
        self.packets_out += 1
        self.queueing_delay_total += wait
        if self.on_depart:
            for listener in self.on_depart:
                listener(packet, now, wait)
        self.link.transmit(packet)

    def _drain_burst(self) -> None:
        """Serve as many queued packets as provably unobservable, in one
        completion event.

        Runs only in link-completion context (``Link.on_complete_idle``):
        the clock sits exactly at a completion instant and no caller above
        the engine loop will read it after we return.  Each iteration
        serves the scheduler's head packet *inline* — identical departure
        accounting and delivery as the per-packet path, with the clock
        advanced arithmetically — but only when the departure would be the
        very next thing the engine does anyway: the completion time must
        not pass the ``run(until=...)`` horizon, and every pending event
        must lie strictly after it.  The moment either condition fails
        (a competing arrival, timer, outage, or window edge), we fall back
        to the ordinary schedule-one-completion-event path and return.
        """
        sim = self.sim
        link = self.link
        scheduler = self.scheduler
        rate = link.rate_bps
        on_depart = self.on_depart
        while True:
            head = scheduler.peek_next()
            if head is None:
                return
            complete_at = sim.now + head.size_bits / rate
            if complete_at > sim.horizon or sim.peek_next_time() <= complete_at:
                self._send_next()
                return
            now = sim.now
            packet = scheduler.dequeue(now)
            wait = now - packet.enqueued_at
            packet.queueing_delay += wait
            packet.hops += 1
            self.packets_out += 1
            self.queueing_delay_total += wait
            if on_depart:
                for listener in on_depart:
                    listener(packet, now, wait)
                if sim.peek_next_time() <= complete_at:
                    # A listener scheduled work inside the span: the
                    # departure is already booked, so finish this packet
                    # on the ordinary per-packet path and stop batching.
                    link.transmit(packet)
                    return
            self.batched_departures += 1
            link.serve_inline(packet, complete_at)
            if link.busy:
                # The wire died (and was re-armed) under the delivery:
                # stop; the restore path will wake us per-packet.
                return

    def flush_queue(self) -> int:
        """Drop every queued packet (link-failure teardown accounting).

        Called by the control plane when this port's link fails: queued
        packets are already committed to the dead next hop, so they leave
        through the drop ledger — ``packets_dropped`` plus the ``on_drop``
        listeners — keeping the port's conservation books closed.

        Returns:
            The number of packets flushed.
        """
        now = self.sim.now
        count = 0
        for packet in self.scheduler.drain(now):
            self._drop(packet, now)
            count += 1
        return count

    def kick(self) -> None:
        """Re-poll the scheduler if the link is free.

        Called by non-work-conserving schedulers when a held packet becomes
        eligible; a no-op while the link is transmitting (the normal idle
        callback will poll then).
        """
        if not self.link.busy:
            self._send_next()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<OutputPort {self.name} qlen={self.queue_length} "
            f"in={self.packets_in} out={self.packets_out} "
            f"drop={self.packets_dropped}>"
        )
