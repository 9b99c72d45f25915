"""Network nodes: switches and hosts.

Per the paper's Appendix:

* hosts connect to their switch over an infinitely fast link, so host
  traffic enters the switch with no queueing or transmission delay;
* switches are store-and-forward and output-queued;
* delivery from the last switch to the destination host is likewise
  instantaneous.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.port import OutputPort
from repro.net.routing import RoutingError
from repro.sched.base import Scheduler
from repro.sim.engine import Simulator

PacketHandler = Callable[[Packet], None]


class Node:
    """Base class for anything that can receive packets."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name

    def receive(self, packet: Packet) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"


class Host(Node):
    """An end host: attaches to one switch, sources and sinks packets.

    Packet delivery is dispatched per flow id; a default handler catches
    packets for flows without a registered receiver (e.g. raw datagram
    tests).
    """

    def __init__(self, sim: Simulator, name: str):
        super().__init__(sim, name)
        self.attached_switch: Optional["Switch"] = None
        self._flow_handlers: Dict[str, PacketHandler] = {}
        self.default_handler: Optional[PacketHandler] = None
        self.packets_received = 0
        self.packets_sent = 0

    def attach(self, switch: "Switch") -> None:
        if self.attached_switch is not None:
            raise RuntimeError(f"host {self.name} is already attached")
        self.attached_switch = switch
        switch.attach_host(self)

    def register_flow_handler(self, flow_id: str, handler: PacketHandler) -> None:
        """Route delivered packets of ``flow_id`` to ``handler`` (a sink,
        a playback buffer, or a TCP endpoint)."""
        if flow_id in self._flow_handlers:
            raise ValueError(f"flow {flow_id} already has a handler on {self.name}")
        self._flow_handlers[flow_id] = handler

    def unregister_flow_handler(self, flow_id: str) -> None:
        """Remove a flow's handler (flow teardown); late packets fall back
        to ``default_handler``.  Unknown flows are a no-op."""
        self._flow_handlers.pop(flow_id, None)

    def send(self, packet: Packet) -> None:
        """Inject a packet into the network via the attached switch.

        The host-switch link is infinitely fast (Appendix), so the packet
        arrives at the switch immediately.
        """
        if self.attached_switch is None:
            raise RuntimeError(f"host {self.name} is not attached to a switch")
        self.packets_sent += 1
        self.attached_switch.receive(packet)

    def receive(self, packet: Packet) -> None:
        self.packets_received += 1
        handler = self._flow_handlers.get(packet.flow_id, self.default_handler)
        if handler is not None:
            handler(packet)


class Switch(Node):
    """An output-queued store-and-forward switch.

    Forwarding: a received packet destined to a host attached to this switch
    is delivered instantly (infinitely fast host link); otherwise the
    routing function names the next-hop node and the packet joins that
    output port's queue.

    Routes are resolved once: the destination -> port answer is fixed
    until the routing table or the topology changes, so the first packet
    toward a destination pays for :meth:`_resolve` and every later one is
    a hit in the forwarding table.  Whoever changes the answer calls
    :meth:`clear_forwarding` (``Network`` does, from ``install_routing``,
    ``add_link`` and ``add_host``).
    """

    def __init__(self, sim: Simulator, name: str):
        super().__init__(sim, name)
        self.ports: Dict[str, OutputPort] = {}  # keyed by next-hop node name
        self.attached_hosts: Dict[str, Host] = {}
        # Set by Network when the switch is added; maps (here, destination)
        # to the next-hop node name.
        self.next_hop_fn: Optional[Callable[[str], str]] = None
        self.packets_forwarded = 0
        # destination host -> output port, filled by _resolve on a miss.
        # Unreachable destinations are never entered, so every packet
        # toward one takes the miss path and is ledgered below.
        self._forwarding: Dict[str, OutputPort] = {}
        # Per-flow ledger of packets dropped here because no route to
        # their destination existed (a link failure partitioned the
        # network).  The reroute-aware conservation invariant reads it.
        self.no_route_drops: Dict[str, int] = {}

    def attach_host(self, host: Host) -> None:
        self.attached_hosts[host.name] = host

    def add_port(
        self,
        neighbor: str,
        scheduler: Scheduler,
        link: Link,
        buffer_packets: int = 200,
        batching: bool = True,
    ) -> OutputPort:
        """Create the output port facing ``neighbor`` (link receiver)."""
        if neighbor in self.ports:
            raise ValueError(f"switch {self.name} already has a port to {neighbor}")
        port = OutputPort(
            self.sim,
            name=f"{self.name}->{neighbor}",
            scheduler=scheduler,
            link=link,
            buffer_packets=buffer_packets,
            batching=batching,
        )
        self.ports[neighbor] = port
        return port

    def clear_forwarding(self) -> None:
        """Forget every resolved route (the routing answer may have changed)."""
        self._forwarding.clear()

    def receive(self, packet: Packet) -> None:
        destination = packet.destination
        hosts = self.attached_hosts
        if destination in hosts:
            hosts[destination].receive(packet)
            return
        try:
            port = self._forwarding[destination]
        except KeyError:
            port = self._resolve(packet)
            if port is None:
                return
        self.packets_forwarded += 1
        port.enqueue(packet)

    def _resolve(self, packet: Packet) -> Optional[OutputPort]:
        """Forwarding-table miss: ask the routing function, remember the
        port.  Returns None when the packet was dropped for lack of a
        route."""
        destination = packet.destination
        if self.next_hop_fn is None:
            raise RuntimeError(f"switch {self.name} has no routing function")
        try:
            next_hop = self.next_hop_fn(destination)
        except RoutingError:
            # The destination is unreachable (a link failure partitioned
            # the network): the packet is dropped here, ledgered so the
            # conservation invariants close.  Zero-cost when no exception
            # is raised, so static-route runs are unaffected.
            drops = self.no_route_drops
            drops[packet.flow_id] = drops.get(packet.flow_id, 0) + 1
            return None
        port = self.ports.get(next_hop)
        if port is None:
            raise RuntimeError(
                f"switch {self.name}: route to {destination} via {next_hop} "
                f"but no such port"
            )
        self._forwarding[destination] = port
        return port
