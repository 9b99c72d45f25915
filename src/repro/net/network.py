"""Network assembly and orchestration.

A :class:`Network` owns the simulator wiring for one experiment: switches,
hosts, links, output ports (each with a scheduler produced by a caller-
supplied factory), and the static routing table.  Every network is
declared as a :class:`repro.scenario.TopologySpec`, whose ``build()`` is the
library's one caller of the ``add_*`` methods.
"""

from __future__ import annotations

from typing import AbstractSet, Callable, Dict, List, Optional

from repro.net.link import Link
from repro.net.node import Host, Switch
from repro.net.port import OutputPort
from repro.net.routing import StaticRouting, route_graph
from repro.sched.base import Scheduler
from repro.sim.engine import Simulator

# A scheduler factory receives the port name and the link it will feed, so
# rate-aware disciplines (WFQ, VirtualClock, the unified scheduler) can size
# themselves off the link speed.
SchedulerFactory = Callable[[str, Link], Scheduler]


class Network:
    """Container wiring switches, hosts, links, and routing together.

    Args:
        batching: passed to every :class:`OutputPort` this network builds
            (``False`` forces per-packet link service everywhere).
    """

    def __init__(
        self,
        sim: Simulator,
        scheduler_factory: SchedulerFactory,
        batching: bool = True,
    ):
        self.sim = sim
        self.scheduler_factory = scheduler_factory
        self.batching = batching
        self.switches: Dict[str, Switch] = {}
        self.hosts: Dict[str, Host] = {}
        self.links: Dict[str, Link] = {}
        self.ports: Dict[str, OutputPort] = {}
        self._routing: Optional[StaticRouting] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_switch(self, name: str) -> Switch:
        if name in self.switches or name in self.hosts:
            raise ValueError(f"duplicate node name {name}")
        switch = Switch(self.sim, name)
        switch.next_hop_fn = lambda dest, _name=name: self.routing.next_hop(_name, dest)
        self.switches[name] = switch
        self._routing = None
        return switch

    def add_host(self, name: str, switch_name: str) -> Host:
        if name in self.switches or name in self.hosts:
            raise ValueError(f"duplicate node name {name}")
        switch = self.switches[switch_name]
        host = Host(self.sim, name)
        host.attach(switch)
        self.hosts[name] = host
        self._routing = None
        self._routes_changed()
        return host

    def add_link(
        self,
        src_switch: str,
        dst_switch: str,
        rate_bps: float,
        propagation_delay: float,
        buffer_packets: int,
    ) -> Link:
        """Install a simplex link src -> dst with its output port.

        The network-wide factory receives the port (link) name, so it is
        already per-port: discipline mixes (FIFO edges feeding a WFQ
        bottleneck) dispatch on that name — see
        :func:`repro.scenario.disciplines.resolve_port_discipline`.
        """
        src = self.switches[src_switch]
        dst = self.switches[dst_switch]
        link_name = f"{src_switch}->{dst_switch}"
        if link_name in self.links:
            raise ValueError(f"duplicate link {link_name}")
        link = Link(self.sim, link_name, rate_bps, propagation_delay)
        link.connect(dst)
        scheduler = self.scheduler_factory(link_name, link)
        port = src.add_port(
            dst_switch, scheduler, link, buffer_packets, self.batching
        )
        self.links[link_name] = link
        self.ports[link_name] = port
        self._routing = None
        self._routes_changed()
        return link

    @property
    def routing(self):
        """The installed routing table; until one is installed, the
        tables over the whole graph built so far."""
        if self._routing is None:
            self._routing = self.routes()
        return self._routing

    def routes(self, down: AbstractSet[str] = frozenset()) -> StaticRouting:
        """Shortest-path tables over this network's graph with the
        ``down`` links removed (:func:`~repro.net.routing.route_graph`)."""
        return route_graph(
            self.switches,
            (
                (name, neighbor)
                for name, switch in self.switches.items()
                for neighbor in switch.ports
            ),
            (
                (host.name, host.attached_switch.name)
                for host in self.hosts.values()
            ),
            down,
        )

    def install_routing(self, routing) -> None:
        """Swap in a fresh routing table, SDN-style.

        Every switch's ``next_hop_fn`` reads ``self.routing`` through a
        closure, so one assignment here re-routes the whole network — the
        control plane (:mod:`repro.control`) installs the tables it
        rebuilds over the surviving links (:meth:`routes`) through this
        seam after each link-state change.  The object only needs
        ``next_hop(here, dest)`` and ``path(src, dst)``.
        """
        self._routing = routing
        self._routes_changed()

    def _routes_changed(self) -> None:
        """The one invalidation seam of the switches' forwarding tables:
        everything that can change a next-hop answer (a new routing table,
        a new edge in the graph) comes through here, so the next packet at
        every switch re-resolves."""
        for switch in self.switches.values():
            switch.clear_forwarding()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def path(self, src_host: str, dst_host: str) -> List[str]:
        """Node path from one host to another (inclusive)."""
        return self.routing.path(src_host, dst_host)

    def links_on_path(self, src_host: str, dst_host: str) -> List[Link]:
        """The inter-switch links a host-to-host flow traverses."""
        return [
            self.links[name]
            for name in self.link_names_on_path(src_host, dst_host)
        ]

    def link_names_on_path(self, src_host: str, dst_host: str) -> List[str]:
        """Names of the inter-switch links between two hosts, in path order.

        Raises:
            RoutingError: if no route exists between the endpoints.
        """
        nodes = self.path(src_host, dst_host)
        out = []
        for here, nxt in zip(nodes, nodes[1:]):
            if f"{here}->{nxt}" in self.links:  # host<->switch hops have none
                out.append(f"{here}->{nxt}")
        return out

    def port_for_link(self, link_name: str) -> OutputPort:
        return self.ports[link_name]

    def total_drops(self) -> int:
        return sum(port.packets_dropped for port in self.ports.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Network switches={len(self.switches)} hosts={len(self.hosts)} "
            f"links={len(self.links)}>"
        )
