"""The central link-state controller.

:class:`LinkStateController` owns a live up/down view of every link,
reacts to failures and repairs by killing/flushing what sat on the dead
wire (ledgered, so conservation closes), rebuilding the network's
shortest-path tables over the surviving links
(:meth:`~repro.net.network.Network.routes`), swapping them into the
network, and re-establishing admission-controlled flows whose paths
moved — teardown of the old reservations, then a fresh signaling
establishment over the new path.  A re-establishment the network refuses
is an *accounted teardown*: the flow's reservations are released, its
source is stopped through the ``on_torn_down`` callback, and the
refusal is recorded in the per-flow stats.

The reroute -> re-admit -> teardown decision itself is
:func:`repro.control.policy.refresh`, shared with the fluid engine:
this controller hands it signaling teardown/establishment as the way to
release and to ask admission, and :mod:`repro.fluid.control` folds the
same function over the outage schedule against its committed-rate
vector, so :class:`ControlPlaneStats` comes out of either engine in the
same shape with matching discrete counters.
"""

from __future__ import annotations

import dataclasses
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Optional,
    Tuple,
)

from repro.core.signaling import FlowEstablishmentError
from repro.net.routing import RoutingError
from repro.control.policy import (
    FlowRerouteStats,
    Refresh,
    TrackedFlow,
    refresh,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.signaling import SignalingAgent
    from repro.net.network import Network
    from repro.scenario.spec import FlowSpec


@dataclasses.dataclass(frozen=True)
class ControlPlaneStats:
    """Controller + ledger summary attached to a validated run result.

    Attributes:
        outages: link failures processed.
        restores: link repairs processed.
        recomputes: SPF table recomputations (one per state change).
        flushed_packets: packets flushed from dead ports' queues
            (ledgered as port drops).
        wire_killed: per-link packets killed mid-wire by failures,
            ``(link_name, count)`` sorted by name, zero entries omitted.
        no_route_drops: per-flow packets dropped for lack of any route,
            ``(flow_id, count)`` sorted by flow, zero entries omitted.
        flows: per-tracked-flow reroute/re-admission outcomes, in
            establishment order.
    """

    outages: int
    restores: int
    recomputes: int
    flushed_packets: int
    wire_killed: Tuple[Tuple[str, int], ...]
    no_route_drops: Tuple[Tuple[str, int], ...]
    flows: Tuple[FlowRerouteStats, ...]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "outages": self.outages,
            "restores": self.restores,
            "recomputes": self.recomputes,
            "flushed_packets": self.flushed_packets,
            "wire_killed": [list(item) for item in self.wire_killed],
            "no_route_drops": [list(item) for item in self.no_route_drops],
            "flows": [flow.to_dict() for flow in self.flows],
        }


class LinkStateController:
    """Central controller: link-state view, SPF rerouting, flow repair.

    Args:
        net: the live network whose links/routes it governs.
        signaling: the signaling agent used to tear down and re-establish
            admission-controlled flows; None for best-effort-only runs.
        on_rerouted: called ``(flow_name, grant)`` after a flow is
            re-admitted on a new path (the scenario layer refreshes its
            grant table here).
        on_torn_down: called ``(flow_name)`` when a flow's
            re-establishment was refused (or no path exists) — the
            scenario layer stops the source, making the teardown an
            accounted one.
    """

    def __init__(
        self,
        net: "Network",
        signaling: Optional["SignalingAgent"] = None,
        on_rerouted: Optional[Callable[[str, Any], None]] = None,
        on_torn_down: Optional[Callable[[str], None]] = None,
    ):
        self.net = net
        self.signaling = signaling
        self.on_rerouted = on_rerouted
        self.on_torn_down = on_torn_down
        self.link_state: Dict[str, bool] = {name: True for name in net.links}
        self.outages = 0
        self.restores = 0
        self.recomputes = 0
        self.flushed_packets = 0
        self._tracked: Dict[str, TrackedFlow] = {}
        #: name -> the tracked flow's spec (its end hosts and request)
        self._flows: Dict[str, "FlowSpec"] = {}

    # ------------------------------------------------------------------
    # Flow registry
    # ------------------------------------------------------------------
    def track_flow(self, flow: "FlowSpec") -> None:
        """Register a flow for reroute bookkeeping and (when it carries a
        request and signaling is present) admission-controlled
        re-establishment.  Flows are repaired in registration
        (= establishment) order."""
        if flow.name in self._tracked:
            raise ValueError(f"flow {flow.name} is already tracked")
        self._tracked[flow.name] = TrackedFlow(flow.name, self._route_of(flow))
        self._flows[flow.name] = flow

    def untrack_flow(self, name: str) -> None:
        """Forget a flow (scenario-level teardown). Unknown names no-op."""
        self._tracked.pop(name, None)
        self._flows.pop(name, None)

    # ------------------------------------------------------------------
    # Link-state events
    # ------------------------------------------------------------------
    def fail_link(self, name: str) -> None:
        """Process a link failure: kill the wire, flush the queue, SPF,
        repair flows.  Failing an already-down link is a no-op."""
        if not self.link_state.get(name, False):
            return
        self.link_state[name] = False
        self.outages += 1
        self.net.links[name].fail()
        self.flushed_packets += self.net.ports[name].flush_queue()
        self._reconverge()

    def restore_link(self, name: str) -> None:
        """Process a link repair: bring the wire up, SPF, repair flows.
        Restoring an up link is a no-op."""
        if self.link_state.get(name, True):
            return
        self.link_state[name] = True
        self.restores += 1
        self.net.links[name].restore()
        self._reconverge()

    # ------------------------------------------------------------------
    # Convergence
    # ------------------------------------------------------------------
    def _reconverge(self) -> None:
        self.recomputes += 1
        down = {name for name, up in self.link_state.items() if not up}
        self.net.install_routing(self.net.routes(down))
        for record in self._tracked.values():
            flow = self._flows[record.name]
            outcome, grant = refresh(
                record,
                self._route_of(flow),
                flow.request is not None and self.signaling is not None,
                self._release,
                self._admit,
            )
            if outcome is Refresh.READMITTED and self.on_rerouted is not None:
                self.on_rerouted(record.name, grant)
            elif outcome is Refresh.TORN_DOWN and self.on_torn_down is not None:
                self.on_torn_down(record.name)

    def _route_of(self, flow: "FlowSpec") -> Optional[Tuple[str, ...]]:
        try:
            return tuple(
                self.net.link_names_on_path(flow.source_host, flow.dest_host)
            )
        except RoutingError:
            return None

    def _release(self, record: TrackedFlow) -> None:
        if record.name in self.signaling.grants:
            self.signaling.teardown(record.name)

    def _admit(self, record: TrackedFlow, links) -> Any:
        try:
            return self.signaling.establish(self._flows[record.name])
        except FlowEstablishmentError:
            return None

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> ControlPlaneStats:
        """Snapshot of controller activity and the failure ledgers."""
        wire_killed = tuple(
            (name, link.packets_failed)
            for name, link in sorted(self.net.links.items())
            if link.packets_failed
        )
        no_route: Dict[str, int] = {}
        for switch in self.net.switches.values():
            for flow, count in switch.no_route_drops.items():
                no_route[flow] = no_route.get(flow, 0) + count
        return ControlPlaneStats(
            outages=self.outages,
            restores=self.restores,
            recomputes=self.recomputes,
            flushed_packets=self.flushed_packets,
            wire_killed=wire_killed,
            no_route_drops=tuple(sorted(no_route.items())),
            flows=tuple(r.stats() for r in self._tracked.values()),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        down = [name for name, ok in self.link_state.items() if not ok]
        return (
            f"<LinkStateController links={len(self.link_state)} "
            f"down={down} flows={len(self._tracked)}>"
        )
