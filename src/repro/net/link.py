"""Point-to-point simplex links.

A link transmits one packet at a time at a fixed bit rate, then hands the
packet to the receiving node after a propagation delay.  Links are simplex;
the topology builder installs one per direction where needed (the paper's
experiments send all traffic one way down the chain).

Utilization accounting lives here: the paper quotes per-link utilization
(83.5 %, >99 %), which is busy-time divided by elapsed time.

Links can also *fail* (:meth:`Link.fail` / :meth:`Link.restore`, driven by
the :mod:`repro.control` plane).  A failure kills whatever is on the wire
— the packet mid-transmission and any packets still propagating — and
books each kill into a per-flow ``failure_drops`` ledger so the
conservation invariants close across outages instead of reporting
vanished packets.  Wire events are scheduled through the simulator's
uncancellable fast path, so kills are detected lazily via an epoch
counter rather than by cancelling events.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.sim.engine import Simulator
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.net.node import Node


class Link:
    """A simplex link from one node's output port to a receiving node.

    Args:
        sim: the simulator.
        name: link name, e.g. ``"S-1->S-2"``.
        rate_bps: transmission rate in bits/s (1 Mbit/s in the paper).
        propagation_delay: one-way propagation latency in seconds.  The
            paper's delay unit ignores propagation (it reports queueing
            delay), so experiments default this to 0; it is modelled because
            a real ISPN has it.
        loss_probability: independent per-packet corruption probability.
            The paper's links are lossless (all loss is buffer overflow);
            this knob exists for failure-injection tests — e.g. TCP
            recovery under random loss rather than congestion loss.
        loss_rng: seeded ``random.Random`` driving the loss draws; required
            when ``loss_probability > 0`` so experiments stay reproducible.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rate_bps: float,
        propagation_delay: float = 0.0,
        loss_probability: float = 0.0,
        loss_rng=None,
    ):
        if rate_bps <= 0:
            raise ValueError(f"link rate must be positive, got {rate_bps}")
        if propagation_delay < 0:
            raise ValueError("propagation delay cannot be negative")
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError("loss probability must be in [0, 1)")
        if loss_probability > 0.0 and loss_rng is None:
            raise ValueError(
                "a seeded loss_rng is required when loss_probability > 0"
            )
        self.sim = sim
        self.name = name
        self.rate_bps = float(rate_bps)
        self.propagation_delay = float(propagation_delay)
        self.receiver: Optional["Node"] = None
        self.busy = False
        # Link-state: a down link accepts no transmissions.  While down,
        # ``busy`` is held True so the owning port's existing idle checks
        # keep packets queued with zero extra hot-path cost; ``up`` is the
        # semantic truth.  ``_epoch`` bumps on every failure; in-flight
        # completion/delivery events compare their birth epoch against it
        # to detect that the wire died under them (fast-path events cannot
        # be cancelled).
        self.up = True
        self._epoch = 0
        self._complete_at = -1.0
        # Per-flow ledger of packets killed on this wire by link failures,
        # plus the total.  Read by the control plane's stats and by the
        # reroute-aware conservation invariant.
        self.failure_drops: Dict[str, int] = {}
        self.packets_failed = 0
        # Utilization: the time integral of the busy flag, accumulated in
        # place on the two edges of each transmission (what a
        # ``TimeWeightedValue`` fed the same edges computes, bit for bit,
        # without two calls per packet).  ``_busy_since`` is meaningful
        # only while a packet is being clocked out (``_in_flight`` set).
        self._busy_start = sim.now
        self._busy_since = sim.now
        self._busy_integral = 0.0
        self.loss_probability = float(loss_probability)
        self._loss_rng = loss_rng
        self.packets_lost = 0
        self.packets_delivered = 0
        # Packets that finished transmitting but are still propagating
        # toward the receiver (only ever non-zero on delayed links).  The
        # conservation invariants in :mod:`repro.validate` read this plus
        # ``busy`` to account for every packet on the wire.
        self.in_transit = 0
        # Called when a transmission completes and the link goes idle; the
        # owning OutputPort uses it to pull the next packet.
        self.on_idle: Optional[Callable[[], None]] = None
        # Batched-service variant: when set, completion events call this
        # *instead of* ``on_idle`` so the port's burst loop can serve
        # several packets inside the one event (see OutputPort).  Other
        # idle transitions — notably :meth:`restore` — still use
        # ``on_idle``: their callers run code after the call returns and
        # must not observe an arithmetically advanced clock.
        self.on_complete_idle: Optional[Callable[[], None]] = None
        # Hot-path bindings: the link is simplex and transmits one packet
        # at a time, so the in-flight packet lives on the link instead of
        # in a per-packet closure, and the completion callback is one bound
        # method scheduled through a pre-bound ``schedule``.
        self._in_flight: Optional[Packet] = None
        self._schedule = sim.schedule

    def connect(self, receiver: "Node") -> None:
        self.receiver = receiver

    def transmission_time(self, packet: Packet) -> float:
        """Seconds needed to clock the packet onto the wire."""
        return packet.size_bits / self.rate_bps

    def transmit(self, packet: Packet) -> None:
        """Begin transmitting ``packet``.  The link must be idle.

        On completion the packet is delivered to the receiver after the
        propagation delay, and ``on_idle`` fires so the port can send more.
        """
        if self.busy:
            if not self.up:
                raise RuntimeError(f"link {self.name} is down")
            raise RuntimeError(f"link {self.name} is busy")
        if self.receiver is None:
            raise RuntimeError(f"link {self.name} is not connected")
        self.busy = True
        now = self.sim.now
        self._busy_since = now
        self._in_flight = packet
        transmission = packet.size_bits / self.rate_bps
        self._complete_at = now + transmission
        self._schedule(transmission, self._complete)

    def _complete(self) -> None:
        packet = self._in_flight
        if packet is None or self.sim.now != self._complete_at:
            # Stale completion: this transmission was killed by a link
            # failure (fail() ledgered the packet; fast-path events
            # cannot be cancelled, so the orphaned event no-ops here).
            return
        self._in_flight = None
        self.busy = False
        self._busy_integral += self.sim.now - self._busy_since
        receiver = self.receiver
        if (
            self.loss_probability > 0.0
            and self._loss_rng.random() < self.loss_probability
        ):
            # The packet was corrupted on the wire: the link was occupied
            # (utilization already counted) but nothing arrives.
            self.packets_lost += 1
            idle = self.on_complete_idle
            if idle is not None:
                idle()
            elif self.on_idle is not None:
                self.on_idle()
            return
        if self.propagation_delay > 0:
            self.in_transit += 1
            epoch = self._epoch

            def deliver() -> None:
                self.in_transit -= 1
                if epoch != self._epoch:
                    # The link failed while the packet was propagating:
                    # it died on the wire and joins the failure ledger.
                    self._ledger_failure(packet)
                    return
                self.packets_delivered += 1
                receiver.receive(packet)

            self.sim.schedule(self.propagation_delay, deliver)
        else:
            self.packets_delivered += 1
            receiver.receive(packet)
        idle = self.on_complete_idle
        if idle is not None:
            idle()
        elif self.on_idle is not None:
            self.on_idle()

    def serve_inline(self, packet: Packet, complete_at: float) -> None:
        """Transmit *and* complete ``packet`` arithmetically (batched
        service).

        The caller — the owning port's burst loop, running inside a link
        completion event — has already proven that no other event can fire
        in ``(now, complete_at]``, so this replays exactly what
        :meth:`transmit` followed by :meth:`_complete` would have done
        without scheduling the completion event: both utilization
        bookings, the loss draw, and delivery (or the propagation closure)
        at ``complete_at``.  Neither ``on_idle`` nor ``on_complete_idle``
        fires — the burst loop itself decides whether to keep serving.
        """
        sim = self.sim
        started = sim.now
        sim.advance_to(complete_at)
        self._complete_at = complete_at
        self._busy_integral += complete_at - started
        if (
            self.loss_probability > 0.0
            and self._loss_rng.random() < self.loss_probability
        ):
            self.packets_lost += 1
            return
        if self.propagation_delay > 0:
            self.in_transit += 1
            epoch = self._epoch
            receiver = self.receiver

            def deliver() -> None:
                self.in_transit -= 1
                if epoch != self._epoch:
                    self._ledger_failure(packet)
                    return
                self.packets_delivered += 1
                receiver.receive(packet)

            sim.schedule(self.propagation_delay, deliver)
            return
        self.packets_delivered += 1
        self.receiver.receive(packet)

    # ------------------------------------------------------------------
    # Link-state (control plane)
    # ------------------------------------------------------------------
    def _ledger_failure(self, packet: Packet) -> None:
        self.packets_failed += 1
        drops = self.failure_drops
        drops[packet.flow_id] = drops.get(packet.flow_id, 0) + 1

    def fail(self) -> None:
        """Take the link down, killing whatever is on the wire.

        The packet mid-transmission (if any) is ledgered immediately;
        packets still propagating are ledgered lazily when their delivery
        events fire and notice the epoch bump.  While down, ``busy`` is
        held True so ports keep packets queued without new idle-path
        checks.  Idempotent.
        """
        if not self.up:
            return
        self.up = False
        self._epoch += 1
        if self.busy:
            packet = self._in_flight
            self._in_flight = None
            self._busy_integral += self.sim.now - self._busy_since
            self._ledger_failure(packet)
        self.busy = True

    def restore(self) -> None:
        """Bring the link back up and let the owning port send again.

        Pre-failure wire events stay dead (the epoch is never rolled
        back).  Idempotent.
        """
        if self.up:
            return
        self.up = True
        self.busy = False
        if self.on_idle is not None:
            self.on_idle()

    def utilization(self, now: Optional[float] = None) -> float:
        """Fraction of time the link has been transmitting."""
        if now is None:
            now = self.sim.now
        elapsed = now - self._busy_start
        if elapsed <= 0:
            return 0.0
        busy = self._busy_integral
        if self._in_flight is not None:
            busy += now - self._busy_since
        return busy / elapsed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = ("busy" if self.busy else "idle") if self.up else "down"
        return f"<Link {self.name} {self.rate_bps / 1e6:.2f}Mbps {state}>"
