"""Spec -> :class:`CompiledFluid`: the fluid engine's compile, as stages.

What the paper's architecture fixes before any traffic moves — each
flow's route, whether admission grants its request, which service tier
and sharing rule it falls under — is what the fluid engine *compiles* a
:class:`~repro.scenario.spec.ScenarioSpec` into.  :func:`compile_fluid`
runs the stages in dependency order, each a pure function of the spec
and of earlier stages' products:

1. **routes** (:func:`repro.net.fabric.population_routes`, the whole
   population in one call) — per-flow link-index paths, the packet
   engine's static routes or the seeded ECMP choice;
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

Every spec's flows are read as a ``FlowTable`` (``FlowTable.of``):
per-flow quantities are worked out once per prototype or admission
grant and spread to the flows by index, never through a ``FlowSpec``.

The product is one frozen :class:`CompiledFluid`.  Both backends
(:mod:`repro.fluid.kernel`, :mod:`repro.fluid.reference`) read it and
neither writes it: everything a run changes lives in the ledgers of
:class:`~repro.fluid.model.FluidSimulation`.  Pure Python; routes and
phases take their NumPy array twins where NumPy imports (same values).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, List, Optional, Sequence, Tuple

from repro.net.packet import ServiceClass
from repro.scenario.disciplines import resolve_port_discipline
from repro.scenario.spec import (
    DisciplineSpec,
    FlowTable,
    GuaranteedRequest,
    PredictedRequest,
    ScenarioSpec,
)
from repro.sim.randomness import keyed_uniforms

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

    Per-link and per-flow columns are lists (``flow_names`` a tuple) in
    ``topology.links`` / ``spec.flows`` order; ``epoch_starts``, ``epoch_ends``
    and ``segments`` stay ``None`` unless a control plan cuts the grid,
    which keeps outage-free runs on the uniform-grid arithmetic bit-for-bit.
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
    flow_names: Tuple[str, ...]
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


def compile_fluid(spec: ScenarioSpec, discipline: DisciplineSpec, options,
                  pure_backend: bool) -> CompiledFluid:
    """Run every stage; ``pure_backend`` says the reference backend will
    execute the result (it advances ~16x slower, so the automatic epoch
    is budgeted accordingly)."""
    from repro.net.fabric import population_routes

    flows = FlowTable.of(spec.flows)
    topology = spec.topology
    link_names = topology.link_names
    caps = [float(link.rate_bps) for link in topology.links]
    # Buffer bound in bits: packets x the rate-weighted mean packet
    # size of the population (the packet engine bounds in packets;
    # a single spec-wide mean keeps the bound flow-independent).
    # Summed flow by flow, in flow order, as the per-flow terms add.
    offered = [p.average_rate_pps * p.packet_size_bits for p in flows.protos]
    mean_size = sum(spread(
        [rate * p.packet_size_bits for rate, p in zip(offered, flows.protos)],
        flows.kind,
    )) / sum(spread(offered, flows.kind)) if flows else 1000.0
    buffer_bits = [
        float(link.buffer_packets) * mean_size for link in topology.links
    ]
    paths = population_routes(
        topology, spec.ecmp_seed, *flows.endpoints(), flows.names
    )
    grants, held, admitted, denied, committed = admit(
        spec, flows, paths, caps
    )
    classes, classify = compile_classes(
        spec, flows, discipline, link_names, caps, paths, grants, held
    )
    epoch_seconds, num_epochs = epoch_grid(
        spec, options, classes["period"], pure_backend
    )
    plan = segments = starts = ends = None
    if spec.outages is not None:
        # Function-level: outage-free runs never pay for the control plane.
        from repro.fluid.control import compile_control

        plan, segments, starts, ends, num_epochs = compile_control(
            spec, flows, link_names, caps, paths, classes["fair"],
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


def spread(values: Sequence, kind: Sequence[int]) -> list:
    """``values[kind[f]]`` for every flow ``f``, frame-free."""
    return list(map(values.__getitem__, kind))


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


def admit(spec: ScenarioSpec, flows: FlowTable,
          paths: Sequence[Tuple[int, ...]], link_rates: Sequence[float]):
    """Static admission: the fluid stand-in for the signaling round-trip.

    Request-bearing flows visit admission in
    :meth:`~repro.scenario.ScenarioSpec.establishment_order`, as the
    packet engine's signaling does: a request is
    granted iff its :func:`reserved_rate` :func:`fits` under the
    realtime quota on every path link given earlier commitments.
    Denied flows run as datagram — the paper's fallback service.
    Without an ``admission`` block every request is honoured (the
    runner's direct-install path).

    Returns ``(grants, held, admitted, denied, committed)``: the
    ``(kind, ServiceClass, priority, clock or None)`` outcomes (kind *k*
    as declared, then granted and denied per kind) and each flow's index
    into them; the admitted/denied flow names; and the per-link committed
    bits/s the control plane's re-admission replay starts from.
    """
    quota = spec.admission.realtime_quota if spec.admission else None
    committed = [0.0] * len(link_rates)
    protos, kind, names = flows.protos, flows.kind, flows.names
    rates = [reserved_rate(p.request) for p in protos]
    grants = [(k, p.service_class, p.priority_class, None)
              for k, p in enumerate(protos)]
    for k, (p, rate) in enumerate(zip(protos, rates)):
        grants += [
            (k, ServiceClass.GUARANTEED, 0, rate)
            if isinstance(p.request, GuaranteedRequest)
            else (k, ServiceClass.PREDICTED, p.priority_class, None),
            (k, ServiceClass.DATAGRAM, 0, None),
        ]
    # Every flow runs as declared unless a request says otherwise (the
    # common generated-population shape carries none).
    held = list(kind)
    admitted: List[str] = []
    denied: List[str] = []
    for f in spec.establishment_order():
        name = names[f]
        rate = rates[kind[f]]
        granted = fits(committed, rate, paths[f], quota, link_rates)
        for l in paths[f] if granted else ():
            committed[l] += rate
        (admitted if granted else denied).append(name)
        held[f] = len(protos) + 2 * kind[f] + (not granted)
    return grants, held, admitted, denied, committed


# -- Stage 3: classes --------------------------------------------------


def compile_classes(
    spec: ScenarioSpec, flows: FlowTable, discipline: DisciplineSpec,
    link_names: Sequence[str], caps: Sequence[float],
    paths: Sequence[Tuple[int, ...]], grants: Sequence[tuple], held: List[int],
) -> Tuple[dict, Classifier]:
    """The discipline family's weights, modes and tiers, and each flow's
    fluid source parameters.

    Per-port overrides resolve per link; a flow is governed by the
    discipline at its minimum-capacity path link (its structural
    bottleneck) — the documented fluid approximation of mixed per-tier
    fabrics.  Each answer is worked out once per prototype, grant or
    (grant, bottleneck link class) and spread to the flows by index.

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
            + [grants[g][2] + 1 for g in set(held)
               if grants[g][1] is ServiceClass.PREDICTED]
        )
    protos, kind = flows.protos, flows.kind
    avg_bps = [p.average_rate_pps * p.packet_size_bits for p in protos]

    def governed(grant: int, link: int) -> Tuple[bool, float]:
        """``(fair, weight)``, clock-weighted or demand-shared, of a flow
        holding ``grant`` with a bottleneck of ``link``'s class (-1: none)."""
        k, _cls, _priority, granted = grants[grant]
        governing = resolved[link] if link >= 0 else None
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
            rate = (caps[link] / share if share
                    else params.get("auto_register_rate_bps"))
            # Unregistered flows under WFQ-family schedulers share
            # proportionally to their offered rate.
            return True, rate or avg_bps[k]
        return False, 0.0

    # Links with one discipline and one capacity govern alike; a link's
    # class is named by the first such link.
    first: dict = {}
    link_class = [first.setdefault((id(d), cap), l)
                  for l, (d, cap) in enumerate(zip(resolved, caps))]
    cap = caps.__getitem__

    def classify(f: int, path: Sequence[int]) -> Tuple[bool, float]:
        """``(fair, weight)`` of flow ``f`` routed over ``path``."""
        return governed(held[f], link_class[min(path, key=cap)] if path else -1)

    keys = list(zip(held, [link_class[min(p, key=cap)] if p else -1
                           for p in paths]))
    classified = spread({key: governed(*key) for key in set(keys)}, keys)
    peak_pps = [p.peak_rate_pps or 2.0 * p.average_rate_pps for p in protos]
    duty = [min(p.average_rate_pps / q, 1.0) for p, q in zip(protos, peak_pps)]
    # Guaranteed first, predicted classes by priority, datagram last.
    tiers = [
        0 if not run_tiered or cls is ServiceClass.GUARANTEED
        else 1 + min(priority, num_predicted - 1)
        if cls is ServiceClass.PREDICTED else 1 + num_predicted
        for _k, cls, priority, _clock in grants
    ]
    return dict(
        num_tiers=2 + num_predicted if run_tiered else 1,
        flow_names=flows.names,
        size_bits=spread([float(p.packet_size_bits) for p in protos], kind),
        peak_bps=spread(
            [q * p.packet_size_bits for p, q in zip(protos, peak_pps)], kind
        ),
        duty=spread(duty, kind),
        period=spread([
            p.mean_burst_packets / p.average_rate_pps / max(d, 1e-12)
            for p, d in zip(protos, duty)
        ], kind),
        phase=keyed_uniforms(spec.seed, _PHASE_SALT, flows.names),
        tier=spread(tiers, held),
        realtime=spread([g[1].is_realtime for g in grants], held),
        record=spread([bool(p.record) for p in protos], kind),
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
