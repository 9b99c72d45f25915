"""Seeded, deterministic scenario generators.

The paper demonstrates its architecture claims on a handful of
hand-picked topologies; this module samples whole families of operating
points — and every sample is a frozen, serializable
:class:`~repro.scenario.spec.ScenarioSpec` that regenerates bit-identically
from its ``gen_seed`` in any process (generation draws from
``random.Random(str)``, whose string seeding is version-stable; the
datacenter families in :mod:`repro.scenario.datacenter` add one
``blake2b``-keyed :class:`~repro.sim.randomness.KeyedDraws` stream per
flow for its ECMP branch choices — neither ever consults ``hash()``).

Topology families:

* :func:`random_graph_topology` — Erdős–Rényi-style directed graphs, or
  Barabási–Albert-style scale-free graphs (``scale_free=True``), with a
  random ring repair that guarantees strong connectivity
  (``repair=False`` keeps the raw sample, which may be disconnected —
  building a spec whose flow has no route then raises
  :class:`~repro.net.routing.RoutingError` naming the flow).
* :func:`wan_path_topology` — a propagation-delay-dominated WAN chain:
  per-link propagation sampled from ``propagation_range`` (seconds),
  typically tens of packet transmission times.
* :func:`access_core_topology` — asymmetric access links (rates sampled
  from ``leaf_rate_range``) fanning into one fast core/egress link.

Flow population: :func:`generate_flows` places a mixed
guaranteed/predicted/datagram population over candidate host pairs and
sizes it so the most-loaded link reaches ``target_utilization``,
computing per-link offered load over the exact static routes the
simulator will use.  Longest paths are seeded first so every scenario
has multi-hop flows to measure jitter on.

Scenario builders (:func:`random_graph`, :func:`wan_path`,
:func:`access_core`, :func:`wan_guaranteed`) are registered in the
scenario registry under ``gen:`` names — run them from the CLI with
``--spec gen:random-graph --gen-seed N`` — and, being plain specs, sweep
like anything else (``sweep(base, over=[...generated specs...])``).
Generated specs opt into the :mod:`repro.validate` invariant checks by
default.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.net.routing import RoutingError, StaticRouting
from repro.scenario import paper, registry
from repro.scenario.spec import (
    DisciplineSpec,
    FlowSpec,
    GuaranteedRequest,
    HostAttachment,
    LinkSpec,
    OutageSpec,
    ScenarioSpec,
    TopologySpec,
)
from repro.net.packet import ServiceClass

GEN_PREFIX = "gen:"

#: Default service mix of generated populations (must sum to 1):
#: two predicted classes plus datagram background, the regime the
#: FIFO/FIFO+/CSZ flagship compares.
DEFAULT_MIX: Tuple[Tuple[str, float], ...] = (
    ("predicted_high", 0.35),
    ("predicted_low", 0.35),
    ("datagram", 0.30),
)

#: Hard cap on generated population size, so an unreachable utilization
#: target (e.g. a topology whose bottleneck the flows cannot load)
#: terminates with the achievable load instead of spinning.
MAX_FLOWS = 240

#: Fraction of a link's rate guaranteed clock commitments may occupy.
GUARANTEED_QUOTA = 0.6


def _rng(gen_seed: int, salt: str) -> random.Random:
    """A deterministic stream per (gen_seed, purpose)."""
    return random.Random(f"{salt}:{int(gen_seed)}")


# ----------------------------------------------------------------------
# Topology generators
# ----------------------------------------------------------------------


def random_graph_topology(
    gen_seed: int,
    num_switches: int = 8,
    edge_prob: float = 0.25,
    scale_free: bool = False,
    attach_edges: int = 2,
    rate_bps: float = paper.LINK_RATE_BPS,
    buffer_packets: int = paper.BUFFER_PACKETS,
    propagation_range: Tuple[float, float] = (0.0, 0.0),
    repair: bool = True,
) -> TopologySpec:
    """A seeded random directed graph with one host per switch.

    Args:
        edge_prob: probability of each directed switch pair getting a
            link (ignored when ``scale_free``).
        scale_free: grow the graph by preferential attachment instead —
            each new switch links (duplex) to ``attach_edges`` existing
            switches chosen proportionally to their degree, yielding the
            hub-dominated topologies of real internetworks.
        repair: add a random ring over all switches so the graph is
            strongly connected (every host pair routable).  ``False``
            keeps the raw sample; a disconnected sample then surfaces as
            a :class:`RoutingError` naming the affected flow when a spec
            over it is built.
    """
    if num_switches < 2:
        raise ValueError("a random graph needs at least 2 switches")
    rng = _rng(gen_seed, "random-graph-topology")
    nodes = tuple(f"N-{i + 1}" for i in range(num_switches))
    edges = set()
    if scale_free:
        edges.add((nodes[0], nodes[1]))
        edges.add((nodes[1], nodes[0]))
        degree = {nodes[0]: 1, nodes[1]: 1}
        for new in nodes[2:]:
            existing = [n for n in nodes if n in degree]
            targets: List[str] = []
            for _ in range(min(attach_edges, len(existing))):
                pool = [n for n in existing if n not in targets]
                weights = [degree[n] for n in pool]
                targets.append(rng.choices(pool, weights=weights)[0])
            degree[new] = 0
            for target in targets:
                edges.add((new, target))
                edges.add((target, new))
                degree[new] += 1
                degree[target] += 1
    else:
        for src in nodes:
            for dst in nodes:
                if src != dst and rng.random() < edge_prob:
                    edges.add((src, dst))
    if repair:
        ring = list(nodes)
        rng.shuffle(ring)
        for here, there in zip(ring, ring[1:] + ring[:1]):
            edges.add((here, there))
    links = []
    for src, dst in sorted(edges):
        delay = (
            rng.uniform(*propagation_range)
            if propagation_range[1] > 0
            else 0.0
        )
        links.append(
            LinkSpec(
                src=src,
                dst=dst,
                rate_bps=rate_bps,
                buffer_packets=buffer_packets,
                propagation_delay=delay,
            )
        )
    hosts = tuple(
        HostAttachment(host=f"H-{i + 1}", switch=node)
        for i, node in enumerate(nodes)
    )
    return TopologySpec(
        nodes=nodes, links=tuple(links), host_attachments=hosts
    )


def wan_path_topology(
    gen_seed: int,
    hops: int = 6,
    propagation_range: Tuple[float, float] = (0.005, 0.03),
    rate_bps: float = paper.LINK_RATE_BPS,
    buffer_packets: int = paper.BUFFER_PACKETS,
) -> TopologySpec:
    """A WAN chain whose links carry sampled propagation delays.

    With the default range each hop adds 5–30 ms of propagation — 5 to
    30 packet transmission times at the paper's 1 Mbit/s — so end-to-end
    delay is dominated by distance, not queueing: the regime where
    jitter (not mean delay) is the whole story.
    """
    if hops < 1:
        raise ValueError("a WAN path needs at least 1 hop")
    rng = _rng(gen_seed, "wan-path-topology")
    nodes = tuple(f"W-{i + 1}" for i in range(hops + 1))
    links = tuple(
        LinkSpec(
            src=here,
            dst=there,
            rate_bps=rate_bps,
            buffer_packets=buffer_packets,
            propagation_delay=rng.uniform(*propagation_range),
        )
        for here, there in zip(nodes, nodes[1:])
    )
    hosts = tuple(
        HostAttachment(host=f"H-{i + 1}", switch=node)
        for i, node in enumerate(nodes)
    )
    return TopologySpec(
        nodes=nodes, links=links, host_attachments=hosts
    )


def access_core_topology(
    gen_seed: int,
    num_leaves: int = 6,
    leaf_rate_range: Tuple[float, float] = (256_000.0, 768_000.0),
    core_rate_bps: float = paper.LINK_RATE_BPS,
    buffer_packets: int = paper.BUFFER_PACKETS,
) -> TopologySpec:
    """Asymmetric access links feeding a fast core.

    ``num_leaves`` access switches, each with one host and an uplink to
    the core at a rate sampled from ``leaf_rate_range``; the core drains
    into an egress switch (where the sink host lives) at
    ``core_rate_bps``.  The sampled uplinks typically sum to more than
    the core rate, so the core link is the shared bottleneck and every
    access link shapes its own fan-in differently.
    """
    if num_leaves < 2:
        raise ValueError("an access/core topology needs at least 2 leaves")
    rng = _rng(gen_seed, "access-core-topology")
    leaves = tuple(f"L-{i + 1}" for i in range(num_leaves))
    nodes = leaves + ("CORE", "EGRESS")
    links = tuple(
        LinkSpec(
            src=leaf,
            dst="CORE",
            rate_bps=rng.uniform(*leaf_rate_range),
            buffer_packets=buffer_packets,
        )
        for leaf in leaves
    ) + (
        LinkSpec(
            src="CORE",
            dst="EGRESS",
            rate_bps=core_rate_bps,
            buffer_packets=buffer_packets,
        ),
    )
    hosts = tuple(
        HostAttachment(host=f"src-{i + 1}", switch=leaf)
        for i, leaf in enumerate(leaves)
    ) + (HostAttachment(host="sink-host", switch="EGRESS"),)
    return TopologySpec(
        nodes=nodes, links=links, host_attachments=hosts
    )


# ----------------------------------------------------------------------
# Route + load bookkeeping over a TopologySpec (pre-build)
# ----------------------------------------------------------------------


def links_on_route(
    topology: TopologySpec,
    routing: StaticRouting,
    src_host: str,
    dst_host: str,
) -> Tuple[str, ...]:
    """Inter-switch link names a host pair's flow will traverse."""
    link_names = set(topology.link_names)
    nodes = routing.path(src_host, dst_host)
    return tuple(
        f"{here}->{there}"
        for here, there in zip(nodes, nodes[1:])
        if f"{here}->{there}" in link_names
    )


# ----------------------------------------------------------------------
# Flow population
# ----------------------------------------------------------------------


def _pick_service(rng: random.Random, mix: Tuple[Tuple[str, float], ...]):
    draw = rng.random()
    acc = 0.0
    for name, weight in mix:
        acc += weight
        if draw < acc:
            return name
    return mix[-1][0]


def generate_flows(
    topology: TopologySpec,
    gen_seed: int,
    target_utilization: float = 0.85,
    mix: Tuple[Tuple[str, float], ...] = DEFAULT_MIX,
    pairs: Optional[Sequence[Tuple[str, str]]] = None,
    ensure_multihop: int = 2,
    max_flows: int = MAX_FLOWS,
    average_rate_pps: float = paper.AVERAGE_RATE_PPS,
    packet_size_bits: int = paper.PACKET_BITS,
    with_requests: bool = False,
    packet_size_range: Optional[Tuple[int, int]] = None,
) -> Tuple[FlowSpec, ...]:
    """A mixed flow population sized to a target bottleneck utilization.

    Flows are placed over ``pairs`` (default: every distinct host pair
    with at least one inter-switch link between them) in a seeded random
    cycle — after the ``ensure_multihop`` longest-path pairs, so every
    scenario has long-haul flows whose jitter the multi-hop disciplines
    differentiate on.  Placement stops once the most-loaded link's
    offered load reaches ``target_utilization`` of its rate (or at
    ``max_flows``).

    Service mix entries: ``guaranteed`` (service class stamped; with
    ``with_requests`` also a :class:`GuaranteedRequest` at the peak rate,
    capped so committed clock rates stay under ``GUARANTEED_QUOTA`` of
    every traversed link), ``predicted_high`` / ``predicted_low``
    (priority classes 0 / 1), ``datagram``.

    ``packet_size_range`` makes the population heterogeneous: each flow
    draws its own packet size (bits, uniform inclusive) and its offered
    load and guaranteed peak rate scale with that size.  When ``None``
    (the default) no extra draw is consumed, so existing generated
    populations regenerate bit-identically.

    Raises:
        RoutingError: naming the generated flow, when a candidate pair
            has no route (a disconnected unrepaired sample).
    """
    if not 0 < target_utilization:
        raise ValueError("target utilization must be positive")
    rng = _rng(gen_seed, "flow-population")
    routing = topology.routes()
    hosts = topology.host_names
    if pairs is None:
        pairs = [
            (src, dst) for src in hosts for dst in hosts if src != dst
        ]
    if not pairs:
        raise ValueError("no candidate host pairs to place flows over")

    # Resolve every candidate pair's path once; a missing route is a
    # build-time error naming the flow, never a hang.
    routed: List[Tuple[Tuple[str, str], Tuple[str, ...]]] = []
    for index, (src, dst) in enumerate(pairs):
        try:
            route = links_on_route(topology, routing, src, dst)
        except RoutingError as exc:
            raise RoutingError(
                f"generated flow gen-{index} ({src} -> {dst}): {exc}"
            ) from None
        if route:  # same-switch pairs add no load; skip them
            routed.append(((src, dst), route))
    if not routed:
        raise ValueError("no candidate pair crosses an inter-switch link")

    # Longest paths first (deterministic tie-break), then a seeded cycle.
    longest = sorted(routed, key=lambda item: (-len(item[1]), item[0]))
    head = longest[: max(0, ensure_multihop)]
    tail = [item for item in routed if item not in head]
    rng.shuffle(tail)
    order = head + tail

    rates = {link.name: link.rate_bps for link in topology.links}
    offered: Dict[str, float] = {name: 0.0 for name in rates}
    committed: Dict[str, float] = {name: 0.0 for name in rates}

    def bottleneck() -> float:
        return max(offered[name] / rates[name] for name in offered)

    flows: List[FlowSpec] = []
    position = 0
    while len(flows) < max_flows and bottleneck() < target_utilization:
        (src, dst), route = order[position % len(order)]
        position += 1
        size_bits = (
            rng.randint(*packet_size_range)
            if packet_size_range is not None
            else packet_size_bits
        )
        flow_rate_bps = average_rate_pps * size_bits
        peak_rate_bps = 2.0 * flow_rate_bps
        service = _pick_service(rng, mix)
        service_class = ServiceClass.DATAGRAM
        priority_class = 0
        request = None
        if service == "guaranteed":
            fits = all(
                committed[name] + peak_rate_bps
                <= GUARANTEED_QUOTA * rates[name]
                for name in route
            )
            if fits:
                service_class = ServiceClass.GUARANTEED
                if with_requests:
                    request = GuaranteedRequest(
                        clock_rate_bps=peak_rate_bps
                    )
                for name in route:
                    committed[name] += peak_rate_bps
            else:  # no headroom left: ride as predicted instead
                service, priority_class = "predicted_low", 1
                service_class = ServiceClass.PREDICTED
        if service == "predicted_high":
            service_class, priority_class = ServiceClass.PREDICTED, 0
        elif service == "predicted_low":
            service_class, priority_class = ServiceClass.PREDICTED, 1
        flows.append(
            FlowSpec(
                name=f"gen-{len(flows)}",
                source_host=src,
                dest_host=dst,
                average_rate_pps=average_rate_pps,
                packet_size_bits=size_bits,
                service_class=service_class,
                priority_class=priority_class,
                request=request,
                hops=len(route),
            )
        )
        for name in route:
            offered[name] += flow_rate_bps
    return tuple(flows)


def wfq_auto_rate(
    topology: TopologySpec, flows: Sequence[FlowSpec]
) -> float:
    """A safe WFQ auto-register rate for a generated population.

    Sized so that, on every link, committed guaranteed clock rates plus
    this rate for each remaining flow stay within the link rate — the
    precondition of the Parekh-Gallager bound.  (Floor 1 kbit/s.)
    """
    routing = topology.routes()
    rates = {link.name: link.rate_bps for link in topology.links}
    committed: Dict[str, float] = {name: 0.0 for name in rates}
    others: Dict[str, int] = {name: 0 for name in rates}
    for flow in flows:
        route = links_on_route(
            topology, routing, flow.source_host, flow.dest_host
        )
        for name in route:
            if isinstance(flow.request, GuaranteedRequest):
                committed[name] += flow.request.clock_rate_bps
            else:
                others[name] += 1
    candidates = [
        (rates[name] - committed[name]) / others[name]
        for name in rates
        if others[name]
    ]
    return max(1000.0, min(candidates) if candidates else 1000.0)


# ----------------------------------------------------------------------
# Scenario builders (registered under gen: names)
# ----------------------------------------------------------------------


def _default_disciplines() -> Tuple[DisciplineSpec, ...]:
    return (
        DisciplineSpec.fifo(),
        DisciplineSpec.fifoplus(),
        DisciplineSpec.unified(name="CSZ"),
    )


def _assemble(
    name: str,
    topology: TopologySpec,
    flows: Tuple[FlowSpec, ...],
    disciplines: Optional[Tuple[DisciplineSpec, ...]],
    duration: float,
    seed: int,
    warmup: float,
    validate: bool,
) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        topology=topology,
        flows=flows,
        disciplines=tuple(disciplines or _default_disciplines()),
        duration=duration,
        warmup=warmup,
        seed=seed,
        validate=validate,
    )


@registry.register(GEN_PREFIX + "random-graph")
def random_graph(
    gen_seed: int = 1,
    num_switches: int = 8,
    edge_prob: float = 0.25,
    scale_free: bool = False,
    target_utilization: float = 0.85,
    duration: float = paper.PAPER_DURATION_SECONDS,
    seed: int = 1,
    warmup: float = paper.DEFAULT_WARMUP_SECONDS,
    disciplines: Optional[Tuple[DisciplineSpec, ...]] = None,
    repair: bool = True,
    validate: bool = True,
    propagation_range: Tuple[float, float] = (0.0, 0.0),
) -> ScenarioSpec:
    """A seeded random multi-bottleneck graph under a mixed population."""
    topology = random_graph_topology(
        gen_seed,
        num_switches=num_switches,
        edge_prob=edge_prob,
        scale_free=scale_free,
        repair=repair,
        propagation_range=propagation_range,
    )
    flows = generate_flows(
        topology, gen_seed, target_utilization=target_utilization
    )
    kind = "scale-free" if scale_free else "random-graph"
    return _assemble(
        f"{kind}-g{gen_seed}",
        topology,
        flows,
        disciplines,
        duration,
        seed,
        warmup,
        validate,
    )


@registry.register(GEN_PREFIX + "scale-free")
def scale_free(gen_seed: int = 1, **kwargs) -> ScenarioSpec:
    """The preferential-attachment variant of :func:`random_graph`."""
    return random_graph(gen_seed, scale_free=True, **kwargs)


@registry.register(GEN_PREFIX + "wan-path")
def wan_path(
    gen_seed: int = 1,
    hops: int = 6,
    propagation_range: Tuple[float, float] = (0.005, 0.03),
    target_utilization: float = 0.85,
    duration: float = paper.PAPER_DURATION_SECONDS,
    seed: int = 1,
    warmup: float = paper.DEFAULT_WARMUP_SECONDS,
    disciplines: Optional[Tuple[DisciplineSpec, ...]] = None,
    validate: bool = True,
) -> ScenarioSpec:
    """A propagation-delay-dominated WAN chain under cross traffic."""
    topology = wan_path_topology(
        gen_seed, hops=hops, propagation_range=propagation_range
    )
    hosts = topology.host_names
    # The chain is one-way: only forward pairs are routable.
    pairs = [
        (hosts[i], hosts[j])
        for i in range(len(hosts))
        for j in range(i + 1, len(hosts))
    ]
    flows = generate_flows(
        topology,
        gen_seed,
        target_utilization=target_utilization,
        pairs=pairs,
    )
    return _assemble(
        f"wan-path-g{gen_seed}",
        topology,
        flows,
        disciplines,
        duration,
        seed,
        warmup,
        validate,
    )


@registry.register(GEN_PREFIX + "access-core")
def access_core(
    gen_seed: int = 1,
    num_leaves: int = 6,
    leaf_rate_range: Tuple[float, float] = (256_000.0, 768_000.0),
    core_rate_bps: float = paper.LINK_RATE_BPS,
    target_utilization: float = 0.85,
    duration: float = paper.PAPER_DURATION_SECONDS,
    seed: int = 1,
    warmup: float = paper.DEFAULT_WARMUP_SECONDS,
    disciplines: Optional[Tuple[DisciplineSpec, ...]] = None,
    validate: bool = True,
) -> ScenarioSpec:
    """Asymmetric access links fanning into a fast shared core."""
    topology = access_core_topology(
        gen_seed,
        num_leaves=num_leaves,
        leaf_rate_range=leaf_rate_range,
        core_rate_bps=core_rate_bps,
    )
    pairs = [
        (host, "sink-host")
        for host in topology.host_names
        if host != "sink-host"
    ]
    flows = generate_flows(
        topology,
        gen_seed,
        target_utilization=target_utilization,
        pairs=pairs,
    )
    return _assemble(
        f"access-core-g{gen_seed}",
        topology,
        flows,
        disciplines,
        duration,
        seed,
        warmup,
        validate,
    )


@registry.register(GEN_PREFIX + "wan-guaranteed")
def wan_guaranteed(
    gen_seed: int = 1,
    hops: int = 4,
    propagation_range: Tuple[float, float] = (0.005, 0.02),
    target_utilization: float = 0.8,
    guaranteed_share: float = 0.25,
    duration: float = paper.PAPER_DURATION_SECONDS,
    seed: int = 1,
    warmup: float = paper.DEFAULT_WARMUP_SECONDS,
    validate: bool = True,
) -> ScenarioSpec:
    """Guaranteed-service flows (with installed clock rates) on a WAN path.

    Compares the unified CSZ scheduler against plain WFQ, both
    rate-capable, so every guaranteed request installs its clock rate at
    each hop and the ``guaranteed-delay-bound`` invariant actively
    checks the Parekh-Gallager commitment.  The WFQ side's
    auto-register rate is sized (:func:`wfq_auto_rate`) so total clock
    rates never exceed any link rate — the bound's precondition.
    """
    topology = wan_path_topology(
        gen_seed, hops=hops, propagation_range=propagation_range
    )
    hosts = topology.host_names
    pairs = [
        (hosts[i], hosts[j])
        for i in range(len(hosts))
        for j in range(i + 1, len(hosts))
    ]
    mix = (
        ("guaranteed", guaranteed_share),
        ("predicted_high", (1.0 - guaranteed_share) / 2),
        ("datagram", (1.0 - guaranteed_share) / 2),
    )
    flows = generate_flows(
        topology,
        gen_seed,
        target_utilization=target_utilization,
        mix=mix,
        pairs=pairs,
        with_requests=True,
    )
    disciplines = (
        DisciplineSpec.unified(name="CSZ"),
        DisciplineSpec.wfq(
            auto_register_rate_bps=wfq_auto_rate(topology, flows)
        ),
    )
    return _assemble(
        f"wan-guaranteed-g{gen_seed}",
        topology,
        flows,
        disciplines,
        duration,
        seed,
        warmup,
        validate,
    )


@registry.register(GEN_PREFIX + "outage")
def outage(
    gen_seed: int = 1,
    num_switches: int = 8,
    edge_prob: float = 0.3,
    target_utilization: float = 0.7,
    outage_rate_per_second: float = 0.1,
    mean_outage_seconds: float = 2.0,
    correlated_links: int = 1,
    packet_size_range: Tuple[int, int] = (500, 2_000),
    duration: float = paper.PAPER_DURATION_SECONDS,
    seed: int = 1,
    warmup: float = paper.DEFAULT_WARMUP_SECONDS,
    disciplines: Optional[Tuple[DisciplineSpec, ...]] = None,
    validate: bool = True,
) -> ScenarioSpec:
    """A random repaired graph under a sampled link-outage process.

    The ring repair guarantees strong connectivity, so most single-link
    failures leave an alternate path for the control plane to reroute
    onto; the heterogeneous packet-size population exercises
    conservation under mixed sizes across those reroutes.  Outages start
    after the warmup so statistics windows always contain failover
    transients, and the outage schedule rides its own fixed-name random
    stream — identical across the compared disciplines.
    """
    topology = random_graph_topology(
        gen_seed, num_switches=num_switches, edge_prob=edge_prob
    )
    flows = generate_flows(
        topology,
        gen_seed,
        target_utilization=target_utilization,
        packet_size_range=packet_size_range,
    )
    base = _assemble(
        f"outage-g{gen_seed}",
        topology,
        flows,
        disciplines,
        duration,
        seed,
        warmup,
        validate,
    )
    return dataclasses.replace(
        base,
        outages=OutageSpec(
            rate_per_second=outage_rate_per_second,
            mean_duration_seconds=mean_outage_seconds,
            correlated_links=correlated_links,
            start_after=warmup,
        ),
    )


def generator_names() -> Tuple[str, ...]:
    """The registered ``gen:`` scenario names."""
    return tuple(
        name for name in registry.names() if name.startswith(GEN_PREFIX)
    )
