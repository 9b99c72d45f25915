"""Topology builders: declarative graphs plus the paper's named networks.

Every topology is described by three plain-data sequences — switch names,
directed link definitions, and host attachments — and realized by
:func:`build_network`.  The named constructors the experiments use are
*compilers* to that graph form:

* :func:`single_link_graph` — the Table 1 configuration: one bottleneck
  link shared by N flows.
* :func:`chain_graph` — a chain of switches, one host per switch.
* :func:`figure1_graph` — Figure 1: Host-1..Host-5 on S-1..S-5 with four
  1 Mbit/s inter-switch links, all traffic flowing left-to-right.
* :func:`parking_lot_graph` — the multi-hop merge network (a chain where
  fresh cross traffic enters and leaves at every hop), the classic
  congestion-avoidance workload the paper's FIFO+ story is about.

The legacy ``*_topology`` helpers build the same networks in one call and
are kept for hand-wired tests; spec-driven code goes through
:class:`repro.scenario.TopologySpec`, which compiles to the identical
graph tuples, so both paths construct bit-identical networks.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.net.network import (
    DEFAULT_BUFFER_PACKETS,
    DEFAULT_LINK_RATE_BPS,
    Network,
    SchedulerFactory,
)
from repro.sim.engine import Simulator

FIGURE1_SWITCHES = ["S-1", "S-2", "S-3", "S-4", "S-5"]
FIGURE1_HOSTS = ["Host-1", "Host-2", "Host-3", "Host-4", "Host-5"]

# Graph form: plain tuples so the net layer stays dependency-free.
# A link is (src, dst, rate_bps, propagation_delay, buffer_packets);
# a host attachment is (host_name, switch_name).
LinkDef = Tuple[str, str, float, float, int]
HostDef = Tuple[str, str]
GraphDef = Tuple[Tuple[str, ...], Tuple[LinkDef, ...], Tuple[HostDef, ...]]


def build_network(
    sim: Simulator,
    scheduler_factory: SchedulerFactory,
    nodes: Sequence[str],
    links: Sequence[LinkDef],
    host_attachments: Sequence[HostDef],
    batching: bool = True,
) -> Network:
    """Realize a declarative graph: switches, then links, then hosts.

    The construction order (all switches, all links, all hosts) is the
    invariant the golden-equivalence tests pin: dict insertion order
    downstream (ports, measurement attachment, accounting) follows it.
    """
    net = Network(sim, scheduler_factory, batching)
    for name in nodes:
        net.add_switch(name)
    for src, dst, rate_bps, propagation_delay, buffer_packets in links:
        net.add_link(src, dst, rate_bps, propagation_delay, buffer_packets)
    for host, switch in host_attachments:
        net.add_host(host, switch)
    return net


# ----------------------------------------------------------------------
# Graph compilers for the named topologies
# ----------------------------------------------------------------------


def single_link_graph(
    rate_bps: float = DEFAULT_LINK_RATE_BPS,
    buffer_packets: int = DEFAULT_BUFFER_PACKETS,
) -> GraphDef:
    """Two switches, one link A->B, hosts ``src-host`` and ``dst-host``."""
    return (
        ("A", "B"),
        (("A", "B", rate_bps, 0.0, buffer_packets),),
        (("src-host", "A"), ("dst-host", "B")),
    )


def chain_graph(
    num_switches: int,
    rate_bps: float = DEFAULT_LINK_RATE_BPS,
    buffer_packets: int = DEFAULT_BUFFER_PACKETS,
    duplex: bool = False,
    switch_names: Optional[Sequence[str]] = None,
    host_names: Optional[Sequence[str]] = None,
) -> GraphDef:
    """A chain S1 - S2 - ... - Sn with one host per switch.

    Args:
        duplex: install links in both directions.  The paper's traffic all
            flows one way, but TCP needs a reverse path for ACKs, so the
            Table 3 experiment builds the chain duplex.
    """
    if num_switches < 2:
        raise ValueError("a chain needs at least 2 switches")
    switch_names = list(
        switch_names or (f"S-{i + 1}" for i in range(num_switches))
    )
    host_names = list(
        host_names or (f"Host-{i + 1}" for i in range(num_switches))
    )
    if len(switch_names) != num_switches or len(host_names) != num_switches:
        raise ValueError("name lists must match num_switches")
    links: List[LinkDef] = []
    for left, right in zip(switch_names, switch_names[1:]):
        links.append((left, right, rate_bps, 0.0, buffer_packets))
        if duplex:
            links.append((right, left, rate_bps, 0.0, buffer_packets))
    hosts = tuple(zip(host_names, switch_names))
    return tuple(switch_names), tuple(links), hosts


def figure1_graph(
    rate_bps: float = DEFAULT_LINK_RATE_BPS,
    buffer_packets: int = DEFAULT_BUFFER_PACKETS,
    duplex: bool = False,
) -> GraphDef:
    """The Figure 1 network: five switches, five hosts, four links."""
    return chain_graph(
        num_switches=5,
        rate_bps=rate_bps,
        buffer_packets=buffer_packets,
        duplex=duplex,
        switch_names=list(FIGURE1_SWITCHES),
        host_names=list(FIGURE1_HOSTS),
    )


def parking_lot_graph(
    num_hops: int = 4,
    rate_bps: float = DEFAULT_LINK_RATE_BPS,
    buffer_packets: int = DEFAULT_BUFFER_PACKETS,
) -> GraphDef:
    """The parking-lot merge network: a chain with per-hop cross hosts.

    One long path crosses ``num_hops`` links (``thru-src`` on the first
    switch, ``thru-dst`` on the last); at hop k, cross traffic enters at
    ``cross-src-k`` and leaves one switch later at ``cross-dst-k``, so
    every link is a merge point where fresh traffic converges with the
    long-haul flows — the DEC-TR-506 congestion-avoidance workload.
    """
    if num_hops < 1:
        raise ValueError("a parking lot needs at least 1 hop")
    switches = tuple(f"S-{i + 1}" for i in range(num_hops + 1))
    links = tuple(
        (left, right, rate_bps, 0.0, buffer_packets)
        for left, right in zip(switches, switches[1:])
    )
    hosts: List[HostDef] = [("thru-src", switches[0]), ("thru-dst", switches[-1])]
    for k in range(num_hops):
        hosts.append((f"cross-src-{k + 1}", switches[k]))
        hosts.append((f"cross-dst-{k + 1}", switches[k + 1]))
    return switches, links, tuple(hosts)


# ----------------------------------------------------------------------
# One-call builders (hand-wired tests and benches)
# ----------------------------------------------------------------------


def single_link_topology(
    sim: Simulator,
    scheduler_factory: SchedulerFactory,
    rate_bps: float = DEFAULT_LINK_RATE_BPS,
    buffer_packets: int = DEFAULT_BUFFER_PACKETS,
) -> Network:
    """Two switches, one link A->B, hosts ``src-host`` and ``dst-host``.

    All Table-1 flows source at ``src-host`` and sink at ``dst-host``, so
    every packet crosses the single 1 Mbit/s bottleneck.
    """
    return build_network(
        sim, scheduler_factory, *single_link_graph(rate_bps, buffer_packets)
    )


def chain_topology(
    sim: Simulator,
    scheduler_factory: SchedulerFactory,
    num_switches: int,
    rate_bps: float = DEFAULT_LINK_RATE_BPS,
    buffer_packets: int = DEFAULT_BUFFER_PACKETS,
    duplex: bool = False,
    switch_names: List[str] | None = None,
    host_names: List[str] | None = None,
) -> Network:
    """A chain S1 - S2 - ... - Sn with one host per switch."""
    return build_network(
        sim,
        scheduler_factory,
        *chain_graph(
            num_switches,
            rate_bps=rate_bps,
            buffer_packets=buffer_packets,
            duplex=duplex,
            switch_names=switch_names,
            host_names=host_names,
        ),
    )


def paper_figure1_topology(
    sim: Simulator,
    scheduler_factory: SchedulerFactory,
    rate_bps: float = DEFAULT_LINK_RATE_BPS,
    buffer_packets: int = DEFAULT_BUFFER_PACKETS,
    duplex: bool = False,
) -> Network:
    """The Figure 1 network: five switches, five hosts, four links.

    All experiment traffic travels in the Host-1 -> Host-5 direction; each
    of the four inter-switch links is shared by 10 flows in the Table 2/3
    workloads.
    """
    return build_network(
        sim,
        scheduler_factory,
        *figure1_graph(rate_bps, buffer_packets, duplex=duplex),
    )


def figure1_ascii() -> str:
    """ASCII rendering of Figure 1 (the topology 'figure' deliverable)."""
    return (
        "Host-1    Host-2    Host-3    Host-4    Host-5\n"
        "  |         |         |         |         |\n"
        " S-1 ----- S-2 ----- S-3 ----- S-4 ----- S-5\n"
        "     1Mb/s     1Mb/s     1Mb/s     1Mb/s\n"
    )


def parking_lot_ascii(num_hops: int = 4) -> str:
    """ASCII rendering of the parking-lot merge topology."""
    top = "thru-src" + "".join(
        f"   cross-src-{k + 1}" for k in range(num_hops)
    )
    row = " " + " ----- ".join(f"S-{k + 1}" for k in range(num_hops + 1))
    bottom = "          " + "   ".join(
        f"cross-dst-{k + 1}" for k in range(num_hops)
    )
    return (
        f"{top}\n"
        f"{row}  -- thru-dst\n"
        f"{bottom}\n"
        "(cross traffic enters before, and exits after, every link)\n"
    )
