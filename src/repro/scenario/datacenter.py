"""Generated datacenter scenarios: ``gen:fat-tree`` / ``gen:leaf-spine``.

These are the scale companions of :mod:`repro.scenario.generators`: the
same seeded determinism contract (placement and service draws come from
a string-seeded stream, each flow's ECMP branch choices from its own
``KeyedDraws`` key, so a (name, gen_seed) pair rebuilds the identical
spec forever), but populations of 10k–1M flows over the fabric families
in :mod:`repro.net.fabric` — far beyond what the packet engine can
advance, and exactly what the fluid engine exists for.  Generated specs
default to ``engine="fluid"`` and to seeded ECMP path spreading
(``ecmp_seed=gen_seed``); both are plain spec fields, so any instance
small enough can be re-run on the packet engine by passing
``engine="packet"`` — that is how the equivalence goldens pin the
generator family itself.

Sizing works differently from the small generators: with 100k+ flows,
placing flows one at a time against a utilization watermark is both
slow and unnecessary.  Instead the builder places ``num_flows`` seeded
host pairs up front, computes the exact per-link offered load over each
flow's *actual* route (ECMP or static), and then scales every flow's
rate by one common factor so the most-loaded link sits at
``target_utilization``.  The relative load pattern — which tiers are
hot, how ECMP spreads pods — is preserved; only the absolute scale
moves.

Only a seeded sample of ``record_flows`` flows carries ``record=True``:
delay statistics need per-epoch samples per recorded flow, and a
million recorded flows would drown the result payload.  Aggregate
truth (per-link utilization, queueing, drops) always covers every flow.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.net.fabric import (
    fat_tree_topology,
    flow_routes,
    leaf_spine_topology,
)
from repro.net.packet import ServiceClass
from repro.scenario import paper, registry
from repro.scenario.generators import (
    DEFAULT_MIX,
    GEN_PREFIX,
    _pick_service,
    _rng,
)
from repro.scenario.spec import (
    AdmissionSpec,
    DisciplineSpec,
    FlowSpec,
    GuaranteedRequest,
    PredictedRequest,
    ScenarioSpec,
    TopologySpec,
)

#: Tier-override patterns per fabric kind: tier name -> link globs.
_TIER_PATTERNS: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "fat-tree": {
        "edge": ("E-*->A-*", "A-*->E-*"),
        "core": ("A-*->C-*", "C-*->A-*"),
    },
    "leaf-spine": {
        "spine": ("L-*->SP-*", "SP-*->L-*"),
    },
}


def _tier_discipline(kind: str, tier: str, link_rate_bps: float,
                     flows_per_link: float) -> DisciplineSpec:
    """A named override discipline for one fabric tier."""
    name = f"{kind}-{tier}"
    if kind == "fifo":
        return DisciplineSpec.fifo(name=name)
    if kind == "fifoplus":
        return DisciplineSpec.fifoplus(name=name)
    if kind == "unified":
        return DisciplineSpec.unified(name=name)
    if kind == "wfq":
        return DisciplineSpec.wfq(
            name=name,
            auto_register_rate_bps=link_rate_bps / max(flows_per_link, 1.0),
        )
    raise ValueError(
        f"unknown tier discipline kind {kind!r}; "
        "expected fifo|fifoplus|unified|wfq"
    )


def _with_tier_overrides(
    disciplines: Tuple[DisciplineSpec, ...],
    topology: TopologySpec,
    tier_kinds: Optional[Dict[str, str]],
    flows_per_link: float,
) -> Tuple[DisciplineSpec, ...]:
    """Apply per-tier scheduler overrides (e.g. ``{"core": "fifo"}``:
    cheap FIFO in the core, the spec discipline at the edge — the
    classic 'complex edge, simple core' deployment question)."""
    if not tier_kinds:
        return disciplines
    patterns = _TIER_PATTERNS[topology.kind]
    unknown = set(tier_kinds) - set(patterns)
    if unknown:
        raise ValueError(
            f"unknown {topology.kind} tiers {sorted(unknown)}; "
            f"expected {sorted(patterns)}"
        )
    link_rate = max(link.rate_bps for link in topology.links)
    out = []
    for disc in disciplines:
        for tier, kind in sorted(tier_kinds.items()):
            override = _tier_discipline(kind, tier, link_rate,
                                        flows_per_link)
            for pattern in patterns[tier]:
                disc = disc.override(pattern, override)
        out.append(disc)
    return tuple(out)


def datacenter_flows(
    topology: TopologySpec,
    gen_seed: int,
    num_flows: int,
    target_utilization: float = 0.85,
    mix: Tuple[Tuple[str, float], ...] = DEFAULT_MIX,
    record_flows: int = 32,
    ecmp_seed: Optional[int] = None,
    with_requests: bool = False,
    packet_size_bits: int = paper.PACKET_BITS,
) -> Tuple[FlowSpec, ...]:
    """``num_flows`` seeded host pairs, rate-normalised to the target.

    Every flow starts from the paper's canonical source shape
    (:data:`paper.AVERAGE_RATE_PPS`, peak = 2x average); after placement
    the exact per-link offered load over each flow's actual route (the
    seeded ECMP choice when ``ecmp_seed`` is set, else the static
    shortest path) is computed and *all* rates are scaled by the single
    factor that puts the hottest link at ``target_utilization``.
    """
    if num_flows < 1:
        raise ValueError("num_flows must be >= 1")
    if not (math.isfinite(target_utilization) and target_utilization > 0):
        raise ValueError(
            "target_utilization must be finite and > 0, "
            f"got {target_utilization!r}"
        )
    if record_flows < 0:
        raise ValueError(f"record_flows must be >= 0, got {record_flows!r}")
    rng = _rng(gen_seed, "dc-population")
    hosts = list(topology.host_names)
    if len(hosts) < 2:
        raise ValueError("datacenter topology needs >= 2 hosts")

    # Each flow's route as link indices (positions in topology.links).
    route_of = flow_routes(topology, ecmp_seed)[0]

    crossings = [0] * len(topology.links)
    placements: List[Tuple[str, str, str, int, object, int]] = []
    base_rate_bps = float(paper.AVERAGE_RATE_PPS * packet_size_bits)
    num_hosts = len(hosts)
    randrange = rng.randrange
    place = placements.append
    for i in range(num_flows):
        src = hosts[randrange(num_hosts)]
        dst = hosts[randrange(num_hosts)]
        while dst == src:
            dst = hosts[randrange(num_hosts)]
        name = f"dc-{i}"
        route = route_of(src, dst, name)
        for l in route:
            crossings[l] += 1
        service = _pick_service(rng, mix)
        place((name, src, dst, i, service, len(route)))

    peak_util = max(
        (
            base_rate_bps * count / link.rate_bps
            for count, link in zip(crossings, topology.links)
            if count
        ),
        default=0.0,
    )
    if peak_util <= 0:
        raise ValueError("no generated flow crosses an inter-switch link")
    factor = target_utilization / peak_util
    rate_pps = paper.AVERAGE_RATE_PPS * factor

    recorded = set(
        rng.sample(range(num_flows), min(record_flows, num_flows))
    )
    # Per-service constants, resolved once instead of per flow; request
    # objects are immutable specs, so one instance per service is shared
    # by every flow of that service (requests scale with the common
    # rate, identical across the population).
    classes: Dict[str, Tuple[ServiceClass, int, object]] = {
        "guaranteed": (
            ServiceClass.GUARANTEED, 0,
            GuaranteedRequest(
                clock_rate_bps=2.0 * rate_pps * packet_size_bits
            ) if with_requests else None,
        ),
        "predicted_high": (
            ServiceClass.PREDICTED, 0,
            PredictedRequest(
                token_rate_bps=2.0 * rate_pps * packet_size_bits,
                bucket_depth_bits=50.0 * packet_size_bits,
                target_delay_seconds=0.5,
            ) if with_requests else None,
        ),
        "predicted_low": (ServiceClass.PREDICTED, 1, None),
    }
    datagram = (ServiceClass.DATAGRAM, 0, None)
    flows: List[FlowSpec] = []
    add_flow = flows.append
    for name, src, dst, i, service, hops in placements:
        service_class, priority_class, request = classes.get(
            service, datagram
        )
        add_flow(
            FlowSpec(
                name=name,
                source_host=src,
                dest_host=dst,
                average_rate_pps=rate_pps,
                packet_size_bits=packet_size_bits,
                service_class=service_class,
                priority_class=priority_class,
                request=request,
                record=i in recorded,
                hops=hops,
            )
        )
    return tuple(flows)


def _assemble_dc(
    name: str,
    topology: TopologySpec,
    gen_seed: int,
    num_flows: int,
    target_utilization: float,
    record_flows: int,
    duration: float,
    seed: int,
    warmup: float,
    disciplines: Optional[Tuple[DisciplineSpec, ...]],
    validate: bool,
    engine: str,
    ecmp: bool,
    with_requests: bool,
    admission: bool,
    tier_kinds: Optional[Dict[str, str]],
) -> ScenarioSpec:
    ecmp_seed = gen_seed if ecmp else None
    flows = datacenter_flows(
        topology,
        gen_seed,
        num_flows=num_flows,
        target_utilization=target_utilization,
        record_flows=record_flows,
        ecmp_seed=ecmp_seed,
        with_requests=with_requests,
    )
    mean_path = (
        sum(f.hops or 0 for f in flows) / len(flows) if flows else 1.0
    )
    flows_per_link = num_flows * mean_path / max(len(topology.links), 1)
    base = disciplines or (
        DisciplineSpec.fifo(),
        DisciplineSpec.unified(name="CSZ"),
    )
    return ScenarioSpec(
        name=name,
        topology=topology,
        flows=flows,
        disciplines=_with_tier_overrides(
            tuple(base), topology, tier_kinds, flows_per_link
        ),
        duration=duration,
        warmup=warmup,
        seed=seed,
        validate=validate,
        admission=AdmissionSpec() if admission else None,
        engine=engine,
        ecmp_seed=ecmp_seed,
    )


@registry.register(GEN_PREFIX + "fat-tree")
def fat_tree(
    gen_seed: int = 1,
    k: int = 4,
    hosts_per_edge: int = 0,
    oversubscription: float = 1.0,
    num_flows: int = 0,
    target_utilization: float = 0.85,
    record_flows: int = 32,
    duration: float = 60.0,
    seed: int = 1,
    warmup: float = paper.DEFAULT_WARMUP_SECONDS,
    disciplines: Optional[Tuple[DisciplineSpec, ...]] = None,
    validate: bool = True,
    engine: str = "fluid",
    ecmp: bool = True,
    with_requests: bool = False,
    admission: bool = False,
    tier_kinds: Optional[Dict[str, str]] = None,
) -> ScenarioSpec:
    """A k-ary fat-tree under a seeded many-flow population.

    ``num_flows`` defaults to 16 flows per host.  ``tier_kinds`` maps
    ``edge`` / ``core`` to a scheduler kind for per-tier overrides.
    """
    topology = fat_tree_topology(
        k=k,
        hosts_per_edge=hosts_per_edge,
        oversubscription=oversubscription,
    )
    num_flows = num_flows or 16 * len(topology.host_names)
    return _assemble_dc(
        f"fat-tree-k{k}-g{gen_seed}",
        topology, gen_seed, num_flows, target_utilization, record_flows,
        duration, seed, warmup, disciplines, validate, engine, ecmp,
        with_requests, admission, tier_kinds,
    )


@registry.register(GEN_PREFIX + "leaf-spine")
def leaf_spine(
    gen_seed: int = 1,
    leaves: int = 4,
    spines: int = 2,
    hosts_per_leaf: int = 4,
    num_flows: int = 0,
    target_utilization: float = 0.85,
    record_flows: int = 32,
    duration: float = 60.0,
    seed: int = 1,
    warmup: float = paper.DEFAULT_WARMUP_SECONDS,
    disciplines: Optional[Tuple[DisciplineSpec, ...]] = None,
    validate: bool = True,
    engine: str = "fluid",
    ecmp: bool = True,
    with_requests: bool = False,
    admission: bool = False,
    tier_kinds: Optional[Dict[str, str]] = None,
) -> ScenarioSpec:
    """A leaf-spine fabric under a seeded many-flow population."""
    topology = leaf_spine_topology(
        leaves=leaves, spines=spines, hosts_per_leaf=hosts_per_leaf
    )
    num_flows = num_flows or 16 * len(topology.host_names)
    return _assemble_dc(
        f"leaf-spine-{leaves}x{spines}-g{gen_seed}",
        topology, gen_seed, num_flows, target_utilization, record_flows,
        duration, seed, warmup, disciplines, validate, engine, ecmp,
        with_requests, admission, tier_kinds,
    )
