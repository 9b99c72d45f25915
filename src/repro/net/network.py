"""Network assembly and orchestration.

A :class:`Network` owns the simulator wiring for one experiment: switches,
hosts, links, output ports (each with a scheduler produced by a caller-
supplied factory), and the static routing table.  The experiment modules in
:mod:`repro.experiments` build their topologies through this class.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.net.link import Link
from repro.net.node import Host, Switch
from repro.net.port import OutputPort
from repro.net.routing import StaticRouting
from repro.sched.base import Scheduler
from repro.sim.engine import Simulator

# A scheduler factory receives the port name and the link it will feed, so
# rate-aware disciplines (WFQ, VirtualClock, the unified scheduler) can size
# themselves off the link speed.
SchedulerFactory = Callable[[str, Link], Scheduler]

DEFAULT_LINK_RATE_BPS = 1_000_000  # 1 Mbit/s, the paper's inter-switch rate
DEFAULT_BUFFER_PACKETS = 200  # the paper's switch buffer size


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
        self.routing = StaticRouting()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_switch(self, name: str) -> Switch:
        if name in self.switches or name in self.hosts:
            raise ValueError(f"duplicate node name {name}")
        switch = Switch(self.sim, name)
        switch.next_hop_fn = lambda dest, _name=name: self.routing.next_hop(_name, dest)
        self.switches[name] = switch
        self.routing.add_node(name)
        return switch

    def add_host(self, name: str, switch_name: str) -> Host:
        if name in self.switches or name in self.hosts:
            raise ValueError(f"duplicate node name {name}")
        switch = self.switches[switch_name]
        host = Host(self.sim, name)
        host.attach(switch)
        self.hosts[name] = host
        # Host links are infinitely fast; routing still needs the edges.
        self.routing.add_edge(name, switch_name)
        self.routing.add_edge(switch_name, name)
        self._routes_changed()
        return host

    def add_link(
        self,
        src_switch: str,
        dst_switch: str,
        rate_bps: float = DEFAULT_LINK_RATE_BPS,
        propagation_delay: float = 0.0,
        buffer_packets: int = DEFAULT_BUFFER_PACKETS,
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
        self.routing.add_edge(src_switch, dst_switch)
        self._routes_changed()
        return link

    def add_duplex_link(
        self,
        a: str,
        b: str,
        rate_bps: float = DEFAULT_LINK_RATE_BPS,
        propagation_delay: float = 0.0,
        buffer_packets: int = DEFAULT_BUFFER_PACKETS,
    ) -> None:
        """Convenience: simplex links in both directions."""
        self.add_link(a, b, rate_bps, propagation_delay, buffer_packets)
        self.add_link(b, a, rate_bps, propagation_delay, buffer_packets)

    def install_routing(self, routing) -> None:
        """Swap in a fresh routing table, SDN-style.

        Every switch's ``next_hop_fn`` reads ``self.routing`` through a
        closure, so one assignment here re-routes the whole network — the
        control plane (:mod:`repro.control`) installs recomputed SPF
        tables through this seam after each link-state change.  The
        object only needs ``next_hop(here, dest)`` and ``path(src, dst)``.
        """
        self.routing = routing
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

    def reset_measurements(self) -> None:
        """Restart link utilization accounting on every link (warm-up skip)."""
        for link in self.links.values():
            link.reset_utilization()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Network switches={len(self.switches)} hosts={len(self.hosts)} "
            f"links={len(self.links)}>"
        )
