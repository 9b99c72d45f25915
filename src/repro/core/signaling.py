"""Flow establishment along a path (the last piece of Section 9's loop).

The paper does not fix a signaling protocol; it specifies *what must
happen*: the request visits every switch on the path, each applies the
admission criteria, and only if all accept are the commitments installed —
a WFQ clock rate at every hop for guaranteed flows, or a priority-class
assignment plus an **edge-only** token-bucket conformance check for
predicted flows ("after that initial check, conformance is never enforced
at later switches").  :class:`SignalingAgent` performs exactly that
sequence atomically within the simulation.

A request arrives as the scenario's own :class:`~repro.scenario.FlowSpec`
— its name, end hosts and ``request`` (a
:class:`~repro.scenario.GuaranteedRequest`, a
:class:`~repro.scenario.PredictedRequest`, or None for datagram traffic)
— and is dispatched on the request's ``service_class``.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.admission import AdmissionController, AdmissionDecision
from repro.net.network import Network
from repro.net.packet import ServiceClass
from repro.net.port import OutputPort
from repro.net.routing import RoutingError
from repro.sched.base import GuaranteedServiceUnsupported
from repro.traffic.token_bucket import NonconformingPolicy, TokenBucketFilter

if TYPE_CHECKING:  # pragma: no cover - repro.scenario imports this module
    from repro.scenario.spec import FlowSpec, GuaranteedRequest, PredictedRequest


class FlowEstablishmentError(RuntimeError):
    """Raised when a flow request is rejected; carries the decisions."""

    def __init__(self, message: str, decisions: List[AdmissionDecision]):
        super().__init__(message)
        self.decisions = decisions


def install_clock_rate(
    port: OutputPort,
    flow_id: str,
    rate_bps: float,
    now: Optional[float] = None,
) -> None:
    """Install a guaranteed clock rate through the explicit capability
    interface (:meth:`repro.sched.base.Scheduler.install_guaranteed`).

    Signaling installs through it at every hop of an admitted path, and
    a scenario without admission control installs a guaranteed request
    directly through it.  Disciplines that reserve in other units (e.g.
    HRR slots/frame) refuse instead of silently reinterpreting bits/s,
    so the old ``register_flow`` duck-typing mixup cannot recur.
    """
    try:
        port.scheduler.install_guaranteed(flow_id, rate_bps, now)
    except GuaranteedServiceUnsupported as exc:
        raise FlowEstablishmentError(
            f"scheduler on {port.name} cannot host guaranteed flows: "
            f"{exc}",
            [],
        ) from exc


@dataclasses.dataclass
class FlowGrant:
    """The network's answer to an accepted request.

    Attributes:
        flow_id: the granted flow.
        service_class: granted commitment level.
        priority_class: assigned predicted class (predicted flows only).
        advertised_bound_seconds: the a priori delay bound the network
            advertises — sum of per-switch D_i for predicted service; None
            for guaranteed service (the *source* computes b(r)/r itself,
            Section 8).
        path: node names from source host to destination host.
        link_names: the links (ports) the flow traverses.
    """

    flow_id: str
    service_class: ServiceClass
    priority_class: Optional[int]
    advertised_bound_seconds: Optional[float]
    path: List[str]
    link_names: List[str]


class SignalingAgent:
    """Establishes and tears down service commitments over a network."""

    def __init__(self, network: Network, admission: AdmissionController):
        self.network = network
        self.admission = admission
        self.grants: Dict[str, FlowGrant] = {}
        # flow_id -> the edge port whose ``flow_policers`` table holds the
        # flow's conformance filter.
        self._edge_ports: Dict[str, OutputPort] = {}

    # ------------------------------------------------------------------
    def establish(self, flow: "FlowSpec") -> FlowGrant:
        """Run admission along the path and install the commitment.

        Works over any routed graph: on merge topologies the same link
        appears in many flows' paths, and each request's admission check
        at that link sees the commitments (and measured load) the earlier
        flows left there.

        Raises:
            FlowEstablishmentError: if any link rejects — or if no route
                exists at all; nothing is installed in that case
                (all-or-nothing).
        """
        name = flow.name
        if name in self.grants:
            raise ValueError(f"flow {name} is already established")
        now = self.network.sim.now
        try:
            path = self.network.path(flow.source_host, flow.dest_host)
        except RoutingError as exc:
            raise FlowEstablishmentError(f"flow {name}: {exc}", []) from None
        link_names = self.network.link_names_on_path(
            flow.source_host, flow.dest_host
        )
        if not link_names:
            raise FlowEstablishmentError(
                f"no inter-switch links between {flow.source_host} and "
                f"{flow.dest_host}",
                [],
            )
        request = flow.request
        service = ServiceClass.DATAGRAM if request is None else request.service_class
        if service is ServiceClass.GUARANTEED:
            return self._establish_guaranteed(name, request, path, link_names, now)
        if service is ServiceClass.PREDICTED:
            return self._establish_predicted(name, request, path, link_names, now)
        # Datagram flows need no establishment; grant trivially.
        grant = FlowGrant(
            flow_id=name,
            service_class=ServiceClass.DATAGRAM,
            priority_class=None,
            advertised_bound_seconds=None,
            path=path,
            link_names=link_names,
        )
        self.grants[name] = grant
        return grant

    def _establish_guaranteed(
        self, flow_id: str, request: "GuaranteedRequest", path: List[str], link_names: List[str],
        now: float,
    ) -> FlowGrant:
        decisions = []
        for name in link_names:
            port = self.network.port_for_link(name)
            decision = self.admission.check_guaranteed(
                name, port, request.clock_rate_bps, now
            )
            decisions.append(decision)
            if not decision.accepted:
                raise FlowEstablishmentError(
                    f"guaranteed flow {flow_id} rejected at {name}: "
                    f"{decision.verdict.value} ({decision.detail})",
                    decisions,
                )
        # All links accepted: install the clock rate everywhere.
        for name in link_names:
            port = self.network.port_for_link(name)
            install_clock_rate(port, flow_id, request.clock_rate_bps, now)
            self.admission.record_guaranteed(name, flow_id, request.clock_rate_bps)
        grant = FlowGrant(
            flow_id=flow_id,
            service_class=ServiceClass.GUARANTEED,
            priority_class=None,
            advertised_bound_seconds=None,
            path=path,
            link_names=link_names,
        )
        self.grants[flow_id] = grant
        return grant

    def _establish_predicted(
        self, flow_id: str, request: "PredictedRequest", path: List[str], link_names: List[str],
        now: float,
    ) -> FlowGrant:
        per_switch_target = request.target_delay_seconds / len(link_names)
        priority_class = self.admission.choose_class(per_switch_target)
        decisions: List[AdmissionDecision] = []
        if priority_class is None:
            raise FlowEstablishmentError(
                f"predicted flow {flow_id}: target delay "
                f"{request.target_delay_seconds}s over {len(link_names)} hops is "
                f"tighter than the tightest class bound — request guaranteed "
                f"service instead",
                decisions,
            )
        for name in link_names:
            port = self.network.port_for_link(name)
            decision = self.admission.check_predicted(
                name,
                port,
                priority_class,
                request.token_rate_bps,
                request.bucket_depth_bits,
                now,
            )
            decisions.append(decision)
            if not decision.accepted:
                raise FlowEstablishmentError(
                    f"predicted flow {flow_id} rejected at {name}: "
                    f"{decision.verdict.value} ({decision.detail})",
                    decisions,
                )
        # Install the edge conformance check at the first switch only,
        # keyed by flow id so the port consults one policer per packet.
        edge_port = self.network.port_for_link(link_names[0])
        edge_port.flow_policers[flow_id] = TokenBucketFilter(
            request.token_rate_bps,
            request.bucket_depth_bits,
            policy=NonconformingPolicy.DROP,
        )
        self._edge_ports[flow_id] = edge_port
        bound = sum(
            self.admission.config.class_bounds_seconds[priority_class]
            for __ in link_names
        )
        grant = FlowGrant(
            flow_id=flow_id,
            service_class=ServiceClass.PREDICTED,
            priority_class=priority_class,
            advertised_bound_seconds=bound,
            path=path,
            link_names=link_names,
        )
        self.grants[flow_id] = grant
        return grant

    # ------------------------------------------------------------------
    def teardown(self, flow_id: str) -> None:
        """Release a flow's commitments (guaranteed rates, reservations)."""
        grant = self.grants.pop(flow_id, None)
        if grant is None:
            raise KeyError(f"flow {flow_id} is not established")
        if grant.service_class is ServiceClass.GUARANTEED:
            now = self.network.sim.now
            for name in grant.link_names:
                self.network.port_for_link(name).scheduler.remove_guaranteed(
                    flow_id, now
                )
                self.admission.release_guaranteed(name, flow_id)
        edge_port = self._edge_ports.pop(flow_id, None)
        if edge_port is not None:
            del edge_port.flow_policers[flow_id]

    def edge_filter_of(self, flow_id: str) -> Optional[TokenBucketFilter]:
        """The installed edge conformance filter (predicted flows)."""
        edge_port = self._edge_ports.get(flow_id)
        return edge_port.flow_policers[flow_id] if edge_port is not None else None
