"""Run-time audit tap for invariant validation.

:class:`SimulationAudit` attaches to every output port of a live network
through the port layer's listener seam (``on_enqueue`` / ``on_depart`` /
``on_drop``) and maintains the bookkeeping the post-run invariant checks
need:

* per (port, flow) counters: packets enqueued, departed, dropped on
  arrival, dropped by push-out after having been queued;
* a pending-packet-id window per (port, flow) — bounded by the port's
  buffer size — used to detect within-flow reordering, duplicated
  departures, and to classify drops;
* clock-monotonicity and buffer-bound observations on every event.

The tap is observation-only: it never schedules events, never consumes
random draws, and never touches packet state, so audited runs are
bit-identical to unaudited ones.  Violations detected *during* the run
are recorded (capped, with full counts) and surfaced by
:func:`repro.validate.invariants.check_invariants`.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Tuple

from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.net.network import Network
    from repro.net.port import OutputPort
    from repro.sim.engine import Simulator

#: How many violation descriptions are kept verbatim; counts are exact
#: regardless (a pathological run must not hoard memory describing it).
MAX_VIOLATION_DETAILS = 25


class PortAudit:
    """Counters and the pending-packet window of one output port."""

    __slots__ = (
        "port",
        "preserves_flow_fifo",
        "enqueued",
        "departed",
        "arrival_dropped",
        "victim_dropped",
        "pending",
        "reordered",
    )

    def __init__(self, port: "OutputPort"):
        self.port = port
        self.preserves_flow_fifo = getattr(
            port.scheduler, "preserves_flow_fifo", True
        )
        self.enqueued: Dict[str, int] = {}
        self.departed: Dict[str, int] = {}
        self.arrival_dropped: Dict[str, int] = {}
        self.victim_dropped: Dict[str, int] = {}
        self.pending: Dict[str, Deque[int]] = {}
        self.reordered = 0

    def arrivals(self, flow_id: str) -> int:
        """Packets of ``flow_id`` offered to this port (queued or not)."""
        return self.enqueued.get(flow_id, 0) + self.arrival_dropped.get(
            flow_id, 0
        )

    def queued(self, flow_id: str) -> int:
        """Packets of ``flow_id`` still waiting in this port's scheduler."""
        return len(self.pending.get(flow_id, ()))


class SimulationAudit:
    """The network-wide tap: one :class:`PortAudit` per output port.

    Args:
        sim: the simulator (clock-monotonicity reference).
        net: the live network whose ports are tapped.

    ``delivered`` counts host deliveries per flow for flows without a
    recording sink — the scenario runner registers
    :meth:`delivery_counter` as the flow handler instead of a no-op when
    an audit is active, so per-flow conservation closes for background
    (``record=False``) flows too.
    """

    def __init__(self, sim: "Simulator", net: "Network"):
        self.sim = sim
        self.net = net
        self.ports: Dict[str, PortAudit] = {}
        self.delivered: Dict[str, int] = {}
        self.violations: List[str] = []
        self.violation_count = 0
        self.fifo_violations = 0
        self.clock_violations = 0
        self.buffer_violations = 0
        self.negative_wait_violations = 0
        # Route-liveness: packets enqueued to, or departing onto, a link
        # that is down (the control plane must never forward onto a dead
        # wire).  Eligibility: packets departing a Stop-and-Go port
        # before the frame eligibility recomputed from their arrival time
        # (non-work-conserving holds must never be cut short).
        self.liveness_violations = 0
        self.eligibility_violations = 0
        self.events_observed = 0
        self._last_now = sim.now
        for name, port in net.ports.items():
            self._attach(name, port)

    # ------------------------------------------------------------------
    def _record(self, kind: str, message: str) -> None:
        self.violation_count += 1
        if len(self.violations) < MAX_VIOLATION_DETAILS:
            self.violations.append(f"{kind}: {message}")

    def _observe_clock(self, now: float, where: str) -> None:
        self.events_observed += 1
        if now < self._last_now:
            self.clock_violations += 1
            self._record(
                "clock",
                f"time ran backwards at {where}: {now} < {self._last_now}",
            )
        else:
            self._last_now = now

    # ------------------------------------------------------------------
    def _attach(self, name: str, port: "OutputPort") -> None:
        audit = PortAudit(port)
        self.ports[name] = audit
        link = port.link
        # Stop-and-Go publishes a pure arrival→eligibility function; when
        # present, recompute the hold independently on every departure.
        eligible_time = port.scheduler.eligible_time

        def on_enqueue(packet: Packet, now: float) -> None:
            self._observe_clock(now, name)
            flow = packet.flow_id
            audit.enqueued[flow] = audit.enqueued.get(flow, 0) + 1
            pending = audit.pending.get(flow)
            if pending is None:
                pending = audit.pending[flow] = deque()
            pending.append(packet.packet_id)
            if port.queue_length > port.buffer_packets:
                self.buffer_violations += 1
                self._record(
                    "buffer",
                    f"{name} holds {port.queue_length} packets "
                    f"(buffer {port.buffer_packets})",
                )

        def on_depart(packet: Packet, now: float, wait: float) -> None:
            self._observe_clock(now, name)
            flow = packet.flow_id
            audit.departed[flow] = audit.departed.get(flow, 0) + 1
            if not link.up:
                self.liveness_violations += 1
                self._record(
                    "route-liveness",
                    f"{name} forwarded {flow} #{packet.packet_id} onto a "
                    "down link",
                )
            if (
                eligible_time is not None
                and now + 1e-12 < eligible_time(packet.enqueued_at)
            ):
                self.eligibility_violations += 1
                self._record(
                    "eligibility",
                    f"{name} served {flow} #{packet.packet_id} at {now} "
                    f"before eligibility "
                    f"{eligible_time(packet.enqueued_at)}",
                )
            if wait < 0:
                self.negative_wait_violations += 1
                self._record(
                    "negative-wait",
                    f"{name} served {flow} #{packet.packet_id} with "
                    f"wait {wait}",
                )
            pending = audit.pending.get(flow)
            if not pending:
                self.fifo_violations += 1
                self._record(
                    "teleport",
                    f"{name} served {flow} #{packet.packet_id} that was "
                    "never enqueued",
                )
                return
            if pending[0] == packet.packet_id:
                pending.popleft()
                return
            # Out of arrival order within the flow.  A scheduler that
            # guarantees within-flow FIFO makes this a violation; FIFO+
            # style disciplines make it a (counted) observation.
            try:
                pending.remove(packet.packet_id)
            except ValueError:
                self.fifo_violations += 1
                self._record(
                    "teleport",
                    f"{name} served {flow} #{packet.packet_id} that was "
                    "never enqueued",
                )
                return
            audit.reordered += 1
            if audit.preserves_flow_fifo:
                self.fifo_violations += 1
                self._record(
                    "flow-fifo",
                    f"{name} ({type(port.scheduler).__name__}) served "
                    f"{flow} #{packet.packet_id} ahead of an earlier "
                    "packet of the same flow",
                )

        def on_drop(packet: Packet, now: float) -> None:
            self._observe_clock(now, name)
            flow = packet.flow_id
            pending = audit.pending.get(flow)
            if pending and packet.packet_id in pending:
                # A push-out victim: it had been queued, so it stays in
                # the enqueued count and leaves through victim_dropped.
                pending.remove(packet.packet_id)
                audit.victim_dropped[flow] = (
                    audit.victim_dropped.get(flow, 0) + 1
                )
            else:
                audit.arrival_dropped[flow] = (
                    audit.arrival_dropped.get(flow, 0) + 1
                )

        port.on_enqueue.append(on_enqueue)
        port.on_depart.append(on_depart)
        port.on_drop.append(on_drop)

    # ------------------------------------------------------------------
    def delivery_counter(self, flow_id: str):
        """A flow handler counting host deliveries (``record=False`` flows)."""
        self.delivered[flow_id] = 0

        def handler(packet: Packet) -> None:
            self.delivered[flow_id] += 1

        return handler

    # ------------------------------------------------------------------
    def reordered_total(self) -> int:
        """Within-flow reorders observed network-wide (all ports)."""
        return sum(audit.reordered for audit in self.ports.values())

    def fifo_ports(self) -> Tuple[str, ...]:
        """Ports whose scheduler guarantees within-flow FIFO order."""
        return tuple(
            name
            for name, audit in sorted(self.ports.items())
            if audit.preserves_flow_fifo
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SimulationAudit ports={len(self.ports)} "
            f"events={self.events_observed} "
            f"violations={self.violation_count}>"
        )
