"""Post-run invariant checks over an audited simulation.

:func:`check_invariants` runs after a validated scenario's simulation
finishes and examines the audit counters, the live network, and the
spec.  Every check yields an :class:`InvariantCheck` — serializable and
picklable, so validated runs travel through sweep workers like any
others.

The invariants:

* ``port-conservation`` — at every output port, packets in equal packets
  out + dropped + still queued, and the per-(port, flow) books close
  exactly (enqueued = departed + pushed out + pending).
* ``flow-conservation`` — along every flow's path, each hop's departures
  match the next hop's arrivals up to the packets physically on the wire
  (transmitting or propagating), the first hop's arrivals equal the
  source's emissions, and the last hop's departures reach the
  destination.  Nothing vanishes, nothing duplicates, per flow.
* ``flow-fifo`` — on every port whose scheduler guarantees within-flow
  FIFO (``Scheduler.preserves_flow_fifo``), packets of one flow depart
  in arrival order.  FIFO+-style ports are observed (reorder counts in
  the detail) but not asserted — their expected-arrival key preserves
  within-flow order only statistically.
* ``guaranteed-delay-bound`` — every guaranteed flow served by
  rate-capable disciplines along its whole path stays below its
  Parekh-Gallager packetized delay bound
  (:func:`repro.core.bounds.parekh_gallager_packet_bound`).
* ``queue-bounds`` — queue occupancy never exceeds the port buffer and
  no packet is served with a negative wait.
* ``clock-monotonic`` — observed event times never run backwards.
* ``route-liveness`` — no packet ever departs a port onto a link that is
  down (the control plane must reconverge before traffic flows again).
* ``eligibility-time`` — non-work-conserving disciplines never release a
  packet before its eligibility: the audit independently recomputes
  Stop-and-Go frame eligibility per departure, and every held-packet
  scheduler self-reports early departures through its
  ``early_departures`` counter.

When the control plane is active (``context.controller`` set) flow paths
change mid-run, so ``flow-conservation`` switches from the static
hop-by-hop walk to a global per-flow ledger: emissions equal deliveries
plus drops anywhere (arrival, push-out, wire-killed on failed links,
no-route at switches) plus packets still queued, within the slack of
packets physically on some wire.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.core.bounds import parekh_gallager_packet_bound
from repro.scenario.spec import FlowSpec, GuaranteedRequest
from repro.scenario.disciplines import resolve_port_discipline

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.scenario.runner import ScenarioContext
    from repro.validate.audit import SimulationAudit

#: Discipline kinds whose schedulers honour installed guaranteed clock
#: rates, making the P-G bound a checkable commitment on their ports.
RATE_CAPABLE_KINDS = ("wfq", "virtual_clock", "unified")

#: Float-comparison slack for the delay-bound check (the bound itself is
#: conservative; this only absorbs accumulation error).
BOUND_EPSILON = 1e-9


class InvariantViolation(AssertionError):
    """One or more simulation invariants failed (see the message)."""


@dataclasses.dataclass(frozen=True)
class InvariantCheck:
    """Outcome of one invariant over one discipline's simulation.

    Attributes:
        name: invariant identifier (``port-conservation``, ...).
        ok: whether the invariant held everywhere it applies.
        checked: units examined (ports, flows, events — per the check).
        violations: number of violations detected.
        detail: human-readable elaboration (first violations, skip
            reasons, informational counts).
    """

    name: str
    ok: bool
    checked: int
    violations: int = 0
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "ok": self.ok,
            "checked": self.checked,
            "violations": self.violations,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data) -> "InvariantCheck":
        return cls(**dict(data))


def assert_clean(checks: Tuple[InvariantCheck, ...]) -> None:
    """Raise :class:`InvariantViolation` if any check failed."""
    failed = [check for check in checks if not check.ok]
    if failed:
        raise InvariantViolation(
            "; ".join(
                f"{check.name}: {check.violations} violation(s)"
                f"{' — ' + check.detail if check.detail else ''}"
                for check in failed
            )
        )


def invariants_summary(checks: Tuple[InvariantCheck, ...]) -> str:
    """One-line ``name=ok`` summary (CLI reporting)."""
    return "  ".join(
        f"{check.name}={'ok' if check.ok else 'FAIL'}" for check in checks
    )


# ----------------------------------------------------------------------
# Individual checks
# ----------------------------------------------------------------------


def _detail(messages: List[str], limit: int = 3) -> str:
    if not messages:
        return ""
    shown = "; ".join(messages[:limit])
    more = len(messages) - limit
    return shown + (f"; (+{more} more)" if more > 0 else "")


def _check_port_conservation(context: "ScenarioContext") -> InvariantCheck:
    audit = context.audit
    problems: List[str] = []
    checked = 0
    for name, port in context.net.ports.items():
        checked += 1
        expected = port.packets_out + port.packets_dropped + port.queue_length
        if port.packets_in != expected:
            problems.append(
                f"{name}: in={port.packets_in} != out={port.packets_out}"
                f"+dropped={port.packets_dropped}+queued={port.queue_length}"
            )
        port_audit = audit.ports[name]
        for flow, enqueued in port_audit.enqueued.items():
            departed = port_audit.departed.get(flow, 0)
            victims = port_audit.victim_dropped.get(flow, 0)
            pending = port_audit.queued(flow)
            if enqueued != departed + victims + pending:
                problems.append(
                    f"{name}/{flow}: enqueued={enqueued} != "
                    f"departed={departed}+pushed_out={victims}"
                    f"+pending={pending}"
                )
    return InvariantCheck(
        name="port-conservation",
        ok=not problems,
        checked=checked,
        violations=len(problems),
        detail=_detail(problems),
    )


def _wire_capacity(link) -> int:
    """Packets that may legitimately sit on one wire right now."""
    return (1 if link.busy else 0) + link.in_transit


def _check_flow_conservation_rerouted(
    context: "ScenarioContext",
) -> InvariantCheck:
    """The reroute-aware per-flow ledger (control plane active).

    A flow's path is no longer a constant, so instead of matching hop
    departures to next-hop arrivals we close a global balance per flow:

        sent = delivered + dropped(any port) + pending(any port)
               + wire-killed(any link) + no-route(any switch) + on-wire

    where the on-wire remainder is bounded by the total number of
    packets a wire may legitimately hold right now, summed over all
    links (it is not per-flow attributable without per-packet wire
    tracking, which the observation-only tap does not do).
    """
    audit = context.audit
    net = context.net
    problems: List[str] = []
    checked = 0
    slack = sum(_wire_capacity(link) for link in net.links.values())
    wire_killed: Dict[str, int] = {}
    for link in net.links.values():
        for flow_id, count in link.failure_drops.items():
            wire_killed[flow_id] = wire_killed.get(flow_id, 0) + count
    no_route: Dict[str, int] = {}
    for switch in net.switches.values():
        for flow_id, count in switch.no_route_drops.items():
            no_route[flow_id] = no_route.get(flow_id, 0) + count
    for flow in context.spec.flows:
        source = context.sources.get(flow.name)
        if source is None:
            continue
        if flow.name in context.sinks:
            delivered = context.sinks[flow.name].received
        elif flow.name in audit.delivered:
            delivered = audit.delivered[flow.name]
        else:  # custom receiver installed by the caller; cannot count
            continue
        checked += 1
        name = flow.name
        dropped = 0
        pending = 0
        for port_audit in audit.ports.values():
            dropped += port_audit.arrival_dropped.get(name, 0)
            dropped += port_audit.victim_dropped.get(name, 0)
            pending += port_audit.queued(name)
        balance = (
            source.sent
            - delivered
            - dropped
            - pending
            - wire_killed.get(name, 0)
            - no_route.get(name, 0)
        )
        if not 0 <= balance <= slack:
            problems.append(
                f"{name}: sent={source.sent} minus delivered={delivered}"
                f"+dropped={dropped}+pending={pending}"
                f"+wire_killed={wire_killed.get(name, 0)}"
                f"+no_route={no_route.get(name, 0)} leaves {balance}, "
                f"wires hold at most {slack}"
            )
    return InvariantCheck(
        name="flow-conservation",
        ok=not problems,
        checked=checked,
        violations=len(problems),
        detail=_detail(problems),
    )


def _check_flow_conservation(context: "ScenarioContext") -> InvariantCheck:
    if getattr(context, "controller", None) is not None:
        return _check_flow_conservation_rerouted(context)
    audit = context.audit
    net = context.net
    problems: List[str] = []
    checked = 0
    for flow in context.spec.flows:
        source = context.sources.get(flow.name)
        if source is None:  # removed mid-run (orchestrated scenarios)
            continue
        checked += 1
        links = net.link_names_on_path(flow.source_host, flow.dest_host)
        if flow.name in context.sinks:
            delivered: Optional[int] = context.sinks[flow.name].received
        elif flow.name in audit.delivered:
            delivered = audit.delivered[flow.name]
        else:  # custom receiver installed by the caller; cannot count
            delivered = None
        if not links:
            if delivered is not None and delivered != source.sent:
                problems.append(
                    f"{flow.name}: sent={source.sent} but "
                    f"delivered={delivered} with no links on path"
                )
            continue
        first = audit.ports[links[0]]
        if first.arrivals(flow.name) != source.sent:
            problems.append(
                f"{flow.name}: source sent {source.sent} but {links[0]} "
                f"saw {first.arrivals(flow.name)} arrivals"
            )
        for here, there in zip(links, links[1:]):
            gap = audit.ports[here].departed.get(
                flow.name, 0
            ) - audit.ports[there].arrivals(flow.name)
            capacity = _wire_capacity(net.links[here])
            if not 0 <= gap <= capacity:
                problems.append(
                    f"{flow.name}: {here} departed minus {there} arrivals "
                    f"is {gap}, wire holds at most {capacity}"
                )
        if delivered is not None:
            last = links[-1]
            gap = audit.ports[last].departed.get(flow.name, 0) - delivered
            capacity = _wire_capacity(net.links[last])
            if not 0 <= gap <= capacity:
                problems.append(
                    f"{flow.name}: {last} departed minus {delivered} "
                    f"delivered is {gap}, wire holds at most {capacity}"
                )
    return InvariantCheck(
        name="flow-conservation",
        ok=not problems,
        checked=checked,
        violations=len(problems),
        detail=_detail(problems),
    )


def _check_flow_fifo(audit: "SimulationAudit") -> InvariantCheck:
    fifo_ports = audit.fifo_ports()
    observed = audit.reordered_total()
    statistical_ports = len(audit.ports) - len(fifo_ports)
    info = []
    if statistical_ports:
        info.append(
            f"{observed} reorder(s) observed on {statistical_ports} "
            "statistical-order (FIFO+-style) port(s)"
        )
    problems = [v for v in audit.violations if v.startswith(("flow-fifo", "teleport"))]
    return InvariantCheck(
        name="flow-fifo",
        ok=audit.fifo_violations == 0,
        checked=len(fifo_ports),
        violations=audit.fifo_violations,
        detail=_detail(problems) or "; ".join(info),
    )


def guaranteed_delay_bound(
    context: "ScenarioContext", flow: FlowSpec
) -> Optional[float]:
    """The P-G packetized bound of one guaranteed flow, if checkable.

    Returns ``None`` when the bound does not apply: the flow carries no
    guaranteed request, a port on its path runs a discipline without
    bit-rate reservations, the flow has no source-side token bucket to
    conform to, or its bucket rate exceeds its clock rate.
    """
    if not isinstance(flow.request, GuaranteedRequest):
        return None
    if flow.bucket_packets is None:
        return None
    clock_rate = flow.request.clock_rate_bps
    if flow.average_rate_pps * flow.packet_size_bits > clock_rate:
        return None
    links = context.net.link_names_on_path(flow.source_host, flow.dest_host)
    if not links:
        return None
    for name in links:
        if resolve_port_discipline(
            context.discipline, name
        ).kind not in RATE_CAPABLE_KINDS:
            return None
    return parekh_gallager_packet_bound(
        bucket_depth_bits=flow.bucket_packets * flow.packet_size_bits,
        clock_rate_bps=clock_rate,
        packet_size_bits=flow.packet_size_bits,
        link_rates_bps=[context.net.links[name].rate_bps for name in links],
    )


def _check_delay_bounds(context: "ScenarioContext") -> InvariantCheck:
    problems: List[str] = []
    checked = 0
    for flow in context.spec.flows:
        bound = guaranteed_delay_bound(context, flow)
        sink = context.sinks.get(flow.name)
        if bound is None or sink is None or not sink.recorded:
            continue
        checked += 1
        measured = sink.queueing.max
        if measured > bound + BOUND_EPSILON:
            problems.append(
                f"{flow.name}: max queueing delay {measured:.6f}s exceeds "
                f"P-G bound {bound:.6f}s"
            )
    return InvariantCheck(
        name="guaranteed-delay-bound",
        ok=not problems,
        checked=checked,
        violations=len(problems),
        detail=_detail(problems)
        or ("" if checked else "no eligible guaranteed flows"),
    )


def _check_queue_bounds(audit: "SimulationAudit") -> InvariantCheck:
    violations = audit.buffer_violations + audit.negative_wait_violations
    problems = [
        v
        for v in audit.violations
        if v.startswith(("buffer", "negative-wait"))
    ]
    return InvariantCheck(
        name="queue-bounds",
        ok=violations == 0,
        checked=audit.events_observed,
        violations=violations,
        detail=_detail(problems),
    )


def _check_route_liveness(audit: "SimulationAudit") -> InvariantCheck:
    problems = [v for v in audit.violations if v.startswith("route-liveness")]
    return InvariantCheck(
        name="route-liveness",
        ok=audit.liveness_violations == 0,
        checked=audit.events_observed,
        violations=audit.liveness_violations,
        detail=_detail(problems),
    )


def _check_eligibility(context: "ScenarioContext") -> InvariantCheck:
    audit = context.audit
    checked = 0
    violations = audit.eligibility_violations
    for port_audit in audit.ports.values():
        early = getattr(port_audit.port.scheduler, "early_departures", None)
        if early is None:
            continue  # work-conserving port: nothing is ever held
        checked += 1
        violations += early
    problems = [v for v in audit.violations if v.startswith("eligibility")]
    return InvariantCheck(
        name="eligibility-time",
        ok=violations == 0,
        checked=checked,
        violations=violations,
        detail=_detail(problems)
        or ("" if checked else "no non-work-conserving ports"),
    )


def _check_clock(audit: "SimulationAudit") -> InvariantCheck:
    problems = [v for v in audit.violations if v.startswith("clock")]
    return InvariantCheck(
        name="clock-monotonic",
        ok=audit.clock_violations == 0,
        checked=audit.events_observed,
        violations=audit.clock_violations,
        detail=_detail(problems),
    )


def check_invariants(context: "ScenarioContext") -> Tuple[InvariantCheck, ...]:
    """Run every invariant over one audited simulation.

    Requires the context to have been built with ``spec.validate`` on
    (i.e. ``context.audit`` is attached).
    """
    audit = context.audit
    if audit is None:
        raise ValueError(
            "scenario was not audited; build it with ScenarioSpec(validate=True)"
        )
    return (
        _check_port_conservation(context),
        _check_flow_conservation(context),
        _check_flow_fifo(audit),
        _check_delay_bounds(context),
        _check_queue_bounds(audit),
        _check_clock(audit),
        _check_route_liveness(audit),
        _check_eligibility(context),
    )
