"""Spec -> :class:`CompiledFluid`: the fluid engine's compile, as stages.

What the paper's architecture fixes before any traffic moves — each
flow's route, whether admission grants its request, which service tier
and sharing rule it falls under — is what the fluid engine *compiles* a
:class:`~repro.scenario.spec.ScenarioSpec` into.  :func:`compile_fluid`
runs the stages in dependency order, each a pure function of the spec
and of earlier stages' products:

1. **routes** (:func:`compile_routes`) — per-flow link-index paths, the
   packet engine's static routes or the seeded ECMP choice;
2. **admission** (:func:`admit`) — the static stand-in for the
   signaling round-trip: who holds a reservation, who falls back to
   datagram, what each link has committed;
3. **classes** (:func:`compile_classes`) — the discipline family's view
   of every flow (tier, clock-weighted or demand-shared, weight) beside
   its fluid source parameters (peak, duty, period, phase);
4. **epoch grid** (:func:`epoch_grid`) — epoch length and count;
5. **control plan + segments**
   (:func:`repro.fluid.control.compile_control`, imported only when the
   spec has outages) — the outage schedule folded into link-state
   epochs and the grid split at their boundaries.

The product is one frozen :class:`CompiledFluid`.  Both backends
(:mod:`repro.fluid.kernel`, :mod:`repro.fluid.reference`) read it and
neither writes it: everything a run changes lives in the ledgers of
:class:`~repro.fluid.model.FluidSimulation`.  Pure Python, numpy-free.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, List, Optional, Sequence, Tuple

from repro.net.packet import ServiceClass
from repro.net.routing import RoutingError
from repro.scenario.disciplines import resolve_port_discipline
from repro.scenario.spec import (
    DisciplineSpec,
    GuaranteedRequest,
    PredictedRequest,
    ScenarioSpec,
)
from repro.sim.randomness import KeyedDraws

#: Discipline kinds that weight flows by clock rate (isolating).
FAIR_KINDS = frozenset({"wfq", "virtual_clock", "round_robin", "drr"})
#: Discipline kinds that allocate in strict service-tier order.
TIERED_KINDS = frozenset({"unified", "priority"})

#: Phase stream salt — the fluid analogue of the runner's
#: ``source:<name>`` streams: phases depend only on (spec.seed, flow
#: name), so disciplines of one spec see identical arrivals (the
#: paper's A/B methodology) and reruns are bit-identical.
_PHASE_SALT = "fluid-phase"

#: Auto-epoch budget, in flow-epoch advances per run: the epoch coarsens
#: with the population so any size costs about this much (what makes a
#: 100k-flow fat-tree finish in tens of seconds).
TARGET_FLOW_EPOCHS = 12e6
#: Water-filling round cap per tier per epoch; when exhausted the
#: remaining flows get one final demand-capped proportional fill
#: (counted in ``waterfill_exhausted``).  Both backends read it here.
MAX_ROUNDS = 200

#: ``classify(f, path) -> (fair, weight)``, see :func:`compile_classes`.
Classifier = Callable[[int, Sequence[int]], Tuple[bool, float]]


@dataclasses.dataclass(frozen=True)
class CompiledFluid:
    """One (spec, discipline, options) compiled for the backends.

    Per-link and per-flow columns are plain lists in ``topology.links``
    / ``spec.flows`` order.  ``epoch_starts``/``epoch_ends``/``segments``
    stay ``None`` unless a control plan cuts the grid, which keeps
    outage-free runs on the uniform-grid arithmetic bit-for-bit.
    """

    # -- links
    link_names: Tuple[str, ...]
    caps: List[float]
    buffer_bits: List[float]
    # -- routes, admission
    paths: List[Tuple[int, ...]]
    admitted: List[str]
    denied: List[str]
    # -- classes
    num_tiers: int
    flow_names: List[str]
    size_bits: List[float]
    peak_bps: List[float]
    duty: List[float]
    period: List[float]
    phase: List[float]
    tier: List[int]
    realtime: List[bool]
    record: List[bool]
    fair: List[bool]             # clock-weighted (isolated) vs demand-shared
    weight_static: List[float]   # clock weight of fair flows; unused else
    # -- epoch grid
    duration: float
    warmup: float
    epoch_seconds: float
    num_epochs: int
    epoch_starts: Optional[List[float]]
    epoch_ends: Optional[List[float]]
    # -- control plane (None without an OutageSpec)
    control_plan: Optional[object]
    segments: Optional[list]


def compile_fluid(
    spec: ScenarioSpec,
    discipline: DisciplineSpec,
    options,
    pure_backend: bool,
) -> CompiledFluid:
    """Run every stage; ``pure_backend`` says the reference backend will
    execute the result (it advances ~16x slower, so the automatic epoch
    is budgeted accordingly)."""
    topology = spec.topology
    link_names = topology.link_names
    caps = [float(link.rate_bps) for link in topology.links]
    # Buffer bound in bits: packets x the rate-weighted mean packet
    # size of the population (the packet engine bounds in packets;
    # a single spec-wide mean keeps the bound flow-independent).
    mean_size = (
        sum(f.average_rate_pps * f.packet_size_bits * f.packet_size_bits
            for f in spec.flows)
        / sum(f.average_rate_pps * f.packet_size_bits for f in spec.flows)
        if spec.flows else 1000.0
    )
    buffer_bits = [
        float(link.buffer_packets) * mean_size for link in topology.links
    ]
    paths = compile_routes(spec)
    service, clock, admitted, denied, committed = admit(spec, paths, caps)
    classes, classify = compile_classes(
        spec, discipline, link_names, caps, paths, service, clock
    )
    epoch_seconds, num_epochs = epoch_grid(
        spec, options, classes["period"], pure_backend
    )
    plan = segments = starts = ends = None
    if spec.outages is not None:
        # Function-level: outage-free runs never pay for the control plane.
        from repro.fluid.control import compile_control

        plan, segments, starts, ends, num_epochs = compile_control(
            spec, link_names, caps, paths, classes["fair"],
            classes["weight_static"], admitted, committed, classify,
            epoch_seconds, num_epochs,
        )
    return CompiledFluid(
        link_names=link_names, caps=caps, buffer_bits=buffer_bits,
        paths=paths, admitted=admitted, denied=denied,
        duration=float(spec.duration), warmup=float(spec.warmup),
        epoch_seconds=epoch_seconds, num_epochs=num_epochs,
        epoch_starts=starts, epoch_ends=ends,
        control_plan=plan, segments=segments,
        **classes,
    )


# -- Stage 1: routes ---------------------------------------------------


def compile_routes(spec: ScenarioSpec) -> List[Tuple[int, ...]]:
    """Per-flow link-index paths (positions in ``topology.links``),
    through the one ECMP-or-static choice
    (:func:`repro.net.fabric.flow_routes`)."""
    from repro.net.fabric import flow_routes

    links = flow_routes(spec.topology, spec.ecmp_seed)[0]
    paths = []
    for flow in spec.flows:
        try:
            paths.append(links(flow.source_host, flow.dest_host, flow.name))
        except RoutingError as exc:
            raise RoutingError(f"flow {flow.name!r}: {exc}") from None
    return paths


# -- Stage 2: admission ------------------------------------------------


def reserved_rate(request) -> Optional[float]:
    """Bits/s a reservation request holds on every link of its path:
    the clock rate of a guaranteed request, the token rate of a
    predicted one (None without a request)."""
    if isinstance(request, GuaranteedRequest):
        return request.clock_rate_bps
    if isinstance(request, PredictedRequest):
        return request.token_rate_bps
    return None


def fits(committed: Sequence[float], rate: float, links: Sequence[int],
         quota: Optional[float], caps: Sequence[float]) -> bool:
    """The admission test: ``rate`` more bits/s stay within the realtime
    quota of every link in ``links`` (always, without a quota)."""
    return quota is None or all(
        committed[l] + rate <= quota * caps[l] for l in links
    )


def admit(spec: ScenarioSpec, paths: Sequence[Tuple[int, ...]],
          link_rates: Sequence[float]):
    """Static admission: the fluid stand-in for the signaling round-trip.

    Request-bearing flows visit admission in establish order (mirroring
    :class:`~repro.scenario.runner.ScenarioContext`): a request is
    granted iff its :func:`reserved_rate` :func:`fits` under the
    realtime quota on every path link given earlier commitments.
    Denied flows run as datagram — the paper's fallback service.
    Without an ``admission`` block every request is honoured (the
    runner's direct-install path).

    Returns ``(service, clock, admitted, denied, committed)``: per-flow
    resolved ``(ServiceClass, priority)`` and granted clock rate (or
    None), both in ``spec.flows`` order; the admitted/denied flow-name
    lists; and the per-link committed bits/s vector — the starting point
    the control plane's re-admission replay works against.
    """
    quota = spec.admission.realtime_quota if spec.admission else None
    committed = [0.0] * len(link_rates)
    # Every flow runs as declared unless a request says otherwise (the
    # common generated-population shape carries none).
    service: List[Tuple[ServiceClass, int]] = [
        (f.service_class, f.priority_class) for f in spec.flows
    ]
    clock: List[Optional[float]] = [None] * len(service)
    admitted: List[str] = []
    denied: List[str] = []
    requesting = {
        flow.name: f for f, flow in enumerate(spec.flows)
        if reserved_rate(flow.request) is not None
    }
    order = [n for n in spec.establish_order or () if n in requesting]
    listed = set(order)
    order += [n for n in requesting if n not in listed]
    for name in order:
        f = requesting[name]
        flow = spec.flows[f]
        rate = reserved_rate(flow.request)
        guaranteed = isinstance(flow.request, GuaranteedRequest)
        if fits(committed, rate, paths[f], quota, link_rates):
            for l in paths[f]:
                committed[l] += rate
            service[f] = (
                (ServiceClass.GUARANTEED, 0) if guaranteed
                else (ServiceClass.PREDICTED, flow.priority_class)
            )
            clock[f] = rate if guaranteed else None
            admitted.append(name)
        else:
            service[f] = (ServiceClass.DATAGRAM, 0)
            denied.append(name)
    return service, clock, admitted, denied, committed


# -- Stage 3: classes --------------------------------------------------


def compile_classes(
    spec: ScenarioSpec,
    discipline: DisciplineSpec,
    link_names: Sequence[str],
    caps: Sequence[float],
    paths: Sequence[Tuple[int, ...]],
    service: Sequence[Tuple[ServiceClass, int]],
    clock: Sequence[Optional[float]],
) -> Tuple[dict, Classifier]:
    """The discipline family's weights, modes and tiers, and each flow's
    fluid source parameters.

    Per-port overrides resolve per link; a flow is governed by the
    discipline at its minimum-capacity path link (its structural
    bottleneck) — the documented fluid approximation of mixed per-tier
    fabrics.

    Returns the per-flow columns keyed by their :class:`CompiledFluid`
    field names (plus ``num_tiers``), and the classifier itself: the
    control plan re-classifies a rerouted flow at the bottleneck of its
    *new* path.
    """
    resolved = [resolve_port_discipline(discipline, name)
                for name in link_names]
    run_tiered = any(d.kind in TIERED_KINDS for d in resolved)
    num_predicted = max(
        [d.param_dict.get("num_predicted_classes", 2)
         for d in resolved if d.kind in TIERED_KINDS] or [2]
    )
    if run_tiered:
        num_predicted = max(
            [num_predicted]
            + [priority + 1 for cls, priority in service
               if cls is ServiceClass.PREDICTED]
        )
    avg_bps = [f.average_rate_pps * f.packet_size_bits for f in spec.flows]

    def classify(f: int, path: Sequence[int]) -> Tuple[bool, float]:
        """``(fair, weight)`` of flow ``f`` routed over ``path``: whether
        it is clock-weighted (isolated) rather than demand-shared, and
        its clock weight."""
        governing = None
        if path:
            bottleneck = min(path, key=caps.__getitem__)
            governing = resolved[bottleneck]
        granted = clock[f]
        if granted is not None and (
            governing is None
            or governing.kind in FAIR_KINDS
            or governing.kind in TIERED_KINDS
        ):
            # An installed clock rate isolates the flow wherever a
            # rate-capable scheduler runs.
            return True, granted
        if governing is not None and governing.kind in FAIR_KINDS:
            params = governing.param_dict
            share = params.get("equal_share_flows")
            if share:
                rate = caps[bottleneck] / share
            else:
                rate = params.get("auto_register_rate_bps")
            # Unregistered flows under WFQ-family schedulers share
            # proportionally to their offered rate.
            return True, rate or avg_bps[f]
        return False, 0.0

    flows = spec.flows
    peak_pps = [f.peak_rate_pps or 2.0 * f.average_rate_pps for f in flows]
    duty = [min(f.average_rate_pps / p, 1.0) for f, p in zip(flows, peak_pps)]
    datagram_tier = 1 + num_predicted

    def tier_of(cls: ServiceClass, priority: int) -> int:
        if not run_tiered or cls is ServiceClass.GUARANTEED:
            return 0
        if cls is ServiceClass.PREDICTED:
            return 1 + min(priority, num_predicted - 1)
        return datagram_tier

    # Whole-column passes (this stage dominates the 1M-flow compile);
    # the few distinct (class, priority) pairs resolve their tier once.
    tiers = {kind: tier_of(*kind) for kind in set(service)}
    classified = [classify(f, path) for f, path in enumerate(paths)]
    seed = spec.seed
    return dict(
        num_tiers=2 + num_predicted if run_tiered else 1,
        flow_names=[f.name for f in flows],
        size_bits=[float(f.packet_size_bits) for f in flows],
        peak_bps=[p * f.packet_size_bits for f, p in zip(flows, peak_pps)],
        duty=duty,
        period=[
            f.mean_burst_packets / f.average_rate_pps / max(d, 1e-12)
            for f, d in zip(flows, duty)
        ],
        phase=[
            KeyedDraws(seed, _PHASE_SALT, f.name).uniform() for f in flows
        ],
        tier=[tiers[kind] for kind in service],
        realtime=[cls.is_realtime for cls, _priority in service],
        record=[bool(f.record) for f in flows],
        fair=[fair for fair, _weight in classified],
        weight_static=[weight for _fair, weight in classified],
    ), classify


# -- Stage 4: epoch grid -----------------------------------------------


def epoch_grid(spec: ScenarioSpec, options, period: Sequence[float],
               pure_backend: bool) -> Tuple[float, int]:
    """``(epoch_seconds, num_epochs)``: ``options.epoch_seconds`` when
    given, else fine enough to resolve the shortest on/off period at
    small populations, coarsening so the whole run stays within
    :data:`TARGET_FLOW_EPOCHS` flow-advances at large ones."""
    duration = float(spec.duration)
    F = len(period)
    if options.epoch_seconds is not None:
        epoch = float(options.epoch_seconds)
    elif not F:
        epoch = duration
    else:
        budget = TARGET_FLOW_EPOCHS / (16.0 if pure_backend else 1.0)
        fine = max(min(period) / 4.0, duration / 65536.0)
        coarse = duration / max(64.0, budget / F)
        epoch = max(fine, min(coarse, duration / 8.0))
    epoch_seconds = min(epoch, duration) if duration else epoch
    num_epochs = (
        max(1, math.ceil(duration / epoch_seconds - 1e-9))
        if duration > 0
        else 0
    )
    return epoch_seconds, num_epochs
