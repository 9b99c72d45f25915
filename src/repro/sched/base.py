"""Scheduler interface.

Every discipline in :mod:`repro.sched` implements this small ABC.  The
output port (not the scheduler) enforces the buffer limit and drives the
link; schedulers only decide *order* (and, optionally, push-out victims).

The contract:

* ``enqueue(packet, now)`` accepts a packet into the queue.  It may return
  False to refuse it (e.g. an unknown guaranteed flow); the port counts that
  as a drop.
* ``dequeue(now)`` returns the next packet to transmit, or None if empty.
  Schedulers must be *work-conserving* unless their docstring says
  otherwise: if ``len(self) > 0`` then ``dequeue`` must return a packet.
* ``__len__`` is the number of queued packets.
"""

from __future__ import annotations

import abc
from typing import List, Optional

from repro.net.packet import Packet


class GuaranteedServiceUnsupported(RuntimeError):
    """The scheduler cannot host a guaranteed flow at a bit rate.

    Raised by :meth:`Scheduler.install_guaranteed` when the discipline
    either has no per-flow reservations at all (FIFO, FIFO+, priority) or
    reserves in units other than bits/s (slot-based disciplines like HRR),
    in which case the caller must convert explicitly instead of relying on
    an ambiguous ``register_flow`` second argument.
    """


class Scheduler(abc.ABC):
    """Abstract packet scheduler."""

    @abc.abstractmethod
    def enqueue(self, packet: Packet, now: float) -> bool:
        """Add a packet; returns False if refused."""

    @abc.abstractmethod
    def dequeue(self, now: float) -> Optional[Packet]:
        """Remove and return the next packet to send, or None when empty."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of packets currently queued."""

    def peek_is_empty(self) -> bool:
        return len(self) == 0

    #: Whether the owning port may *batch-drain* this scheduler: serve
    #: several consecutive packets inside one link-completion event, with
    #: departure timestamps computed arithmetically.  Safe only for
    #: disciplines whose dequeue order depends on queue contents alone —
    #: never on the clock value passed to ``dequeue`` (no eligibility
    #: gates, no time-dependent reordering between two consecutive
    #: departures with no intervening arrival).  FIFO, FIFO+ and static
    #: priority opt in; non-work-conserving disciplines (Stop-and-Go,
    #: HRR, Jitter-EDD) must stay per-packet.  Opting in requires
    #: implementing :meth:`peek_next`.
    supports_batch_drain: bool = False

    def peek_next(self) -> Optional[Packet]:
        """The exact packet the next ``dequeue`` would return, or None.

        Must not mutate scheduler state and must not depend on the clock
        (see :attr:`supports_batch_drain`).  Only consulted by the port's
        batch-drain loop, so the default — for disciplines that stay
        per-packet — is to decline by returning None.
        """
        return None

    #: Whether :meth:`install_guaranteed` actually reserves a bit rate.
    #: Rate-capable implementations set this to True alongside overriding
    #: the method; a scheduler may override the method purely to refuse
    #: with a more specific message (e.g. HRR pointing at its slots
    #: converter) and leave this False.
    supports_guaranteed: bool = False

    #: Whether packets of one flow are guaranteed to depart this scheduler
    #: in their arrival order.  True for every discipline that keys its
    #: order on arrival state alone (FIFO, per-flow queues, per-class
    #: FIFO, deadlines monotone in arrival time).  FIFO+-based disciplines
    #: set this False: the expected-arrival key subtracts the accumulated
    #: jitter offset, which can differ between two packets of the same
    #: flow, so within-flow order is preserved only statistically.  The
    #: :mod:`repro.validate` flow-FIFO invariant is asserted exactly where
    #: this is True and merely *observed* (reorder counting) elsewhere.
    preserves_flow_fifo: bool = True

    def install_guaranteed(
        self, flow_id: str, rate_bps: float, now: Optional[float] = None
    ) -> None:
        """Reserve a guaranteed clock rate of ``rate_bps`` bits/s for
        ``flow_id``, taking effect at ``now`` (the signaling layer passes
        its clock; disciplines whose books are clock-free ignore it).

        This is the *capability interface* the signaling layer uses to
        install Section 8 guaranteed commitments: rate-capable disciplines
        (WFQ, VirtualClock, the unified CSZ scheduler) override it; the
        default refuses, so disciplines that meter in other units (HRR
        slots, Stop-and-Go frames) can never silently misinterpret a bit
        rate.

        Raises:
            GuaranteedServiceUnsupported: if this discipline cannot host
                guaranteed flows at a bit rate.
            ValueError: if the rate is invalid or cannot be accommodated.
        """
        raise GuaranteedServiceUnsupported(
            f"{type(self).__name__} has no per-flow bit-rate reservations"
        )

    def drain(self, now: float) -> List[Packet]:
        """Remove and return every queued packet (link-failure flush).

        The control plane flushes a port's queue when its link dies; the
        packets are being *dropped*, not served, so eligibility holds do
        not apply.  Work-conserving schedulers drain through ``dequeue``
        (their contract guarantees progress while non-empty); non-work-
        conserving ones override this to bypass their holds.
        """
        out: List[Packet] = []
        while len(self):
            packet = self.dequeue(now)
            if packet is None:  # defensive: never spin on a stuck queue
                break
            out.append(packet)
        return out

    def select_push_out(self, incoming: Packet) -> Optional[Packet]:
        """When the buffer is full, nominate a queued packet to evict in
        favour of ``incoming``.

        The default (None) means drop the incoming packet (tail drop).
        Schedulers supporting the Section 10 drop-preference extension
        override this.
        """
        return None
