"""Packet network substrate.

Models the network of the paper's Appendix: output-queued store-and-forward
switches, finite per-port buffers (200 packets), 1 Mbit/s inter-switch links,
infinitely fast host-switch links, fixed 1000-bit packets, and static routing.

The package holds the live parts only.  A topology is declared as a
:class:`repro.scenario.TopologySpec`, whose ``build()`` assembles the
:class:`Network`.
"""

from repro.net.packet import Packet, ServiceClass
from repro.net.link import Link
from repro.net.port import OutputPort
from repro.net.node import Node, Switch, Host
from repro.net.routing import StaticRouting, RoutingError
from repro.net.network import Network

__all__ = [
    "Packet",
    "ServiceClass",
    "Link",
    "OutputPort",
    "Node",
    "Switch",
    "Host",
    "StaticRouting",
    "RoutingError",
    "Network",
]
